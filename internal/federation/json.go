package federation

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// A node listing is as long as the fleet, so its rows append their own JSON:
// the bytes encoding/json renders for the same struct, without its reflection,
// its time.Time.MarshalJSON per row or its second pass over the output. The
// frontend's /v1 envelope writer calls these (internal/core, where FuzzV1Reply
// holds them to encoding/json).

// jsonWindow is how much of a long string is escaped between two offers of
// the buffer to flush. Escaped, a window is at most six times as long.
const jsonWindow = 2048

// jsonEscape is how an ASCII byte that cannot stand for itself in a JSON
// string is written: 'u' as \u00XX, as are all below ' ', anything else as a
// backslash and that byte. <, > and & are escaped for HTML's sake.
var jsonEscape = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '<': 'u', '>': 'u', '&': 'u',
	'\b': 'b', '\t': 't', '\n': 'n', '\f': 'f', '\r': 'r'}

// AppendJSONString appends s as a JSON string under encoding/json's default
// rules, which besides the above escape U+2028 and U+2029 and replace invalid
// UTF-8 by U+FFFD. Runs of plain bytes are copied whole. When flush is not nil
// the buffer is offered to it after every window of s, so a generated file of
// any length passes through a buffer of fixed size.
func AppendJSONString(b []byte, s string, flush func([]byte) []byte) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		// Runes are decoded from s, not from the window, so one that
		// straddles end is read whole and i stops just past it.
		start, end := i, min(i+jsonWindow, len(s))
		for i < end {
			c := s[i]
			r, size, e := rune(c), 1, byte('u')
			if c < utf8.RuneSelf {
				if e = jsonEscape[c]; e == 0 && c >= ' ' {
					i++
					continue
				}
			} else if r, size = utf8.DecodeRuneInString(s[i:]); r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
				i += size
				continue
			}
			b = append(b, s[start:i]...)
			if e == 'u' || e == 0 { // an invalid byte arrives here as r = U+FFFD
				b = append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
			} else {
				b = append(b, '\\', e)
			}
			i += size
			start = i
		}
		b = append(b, s[start:i]...)
		if flush != nil {
			b = flush(b)
		}
	}
	return append(b, '"')
}

// AppendJSON appends the row as json.Marshal renders it.
func (n *NodeRow) AppendJSON(b []byte) []byte {
	b = AppendJSONString(append(b, `{"name":`...), n.Name, nil)
	b = AppendJSONString(append(b, `,"mac":`...), n.MAC, nil)
	b = AppendJSONString(append(b, `,"ip":`...), n.IP, nil)
	b = strconv.AppendInt(append(b, `,"membership":`...), int64(n.Membership), 10)
	b = strconv.AppendInt(append(b, `,"rack":`...), int64(n.Rack), 10)
	b = strconv.AppendInt(append(b, `,"rank":`...), int64(n.Rank), 10)
	if n.Arch != "" {
		b = AppendJSONString(append(b, `,"arch":`...), n.Arch, nil)
	}
	if n.CPUs != 0 {
		b = strconv.AppendInt(append(b, `,"cpus":`...), int64(n.CPUs), 10)
	}
	if n.State != "" {
		b = AppendJSONString(append(b, `,"state":`...), n.State, nil)
	}
	if n.Shard != "" {
		b = AppendJSONString(append(b, `,"shard":`...), n.Shard, nil)
	}
	if n.LastSeq != 0 {
		b = strconv.AppendUint(append(b, `,"last_seq":`...), n.LastSeq, 10)
	}
	b = n.LastEvent.AppendFormat(append(b, `,"last_event":"`...), time.RFC3339Nano)
	return append(b, `"}`...)
}
