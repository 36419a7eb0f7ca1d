package lifecycle

// The client side of /v1/events: the CLI tools (shoot-node,
// insert-ethers) fetch a node's merged timeline from a running frontend
// through apiclient and render it for a terminal, so "what has this machine
// been through?" is one flag away from any shell.

import (
	"fmt"
	"strings"
)

// TimelineResponse is the event-listing payload of /v1/events?node=.
type TimelineResponse struct {
	Events  []Event `json:"events"`
	Seq     uint64  `json:"seq"`
	Dropped uint64  `json:"dropped"`
}

// FormatTimeline renders a timeline one event per line, aligned for a
// terminal, with wall-clock times.
func FormatTimeline(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%s  %-9s %-16s %-13s", e.Time.Format("15:04:05.000"),
			e.Phase, e.Type, e.Source)
		if e.Attempt > 0 {
			fmt.Fprintf(&b, " attempt=%d", e.Attempt)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
