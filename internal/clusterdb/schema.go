package clusterdb

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file defines the standard Rocks schema (§6.4, Tables II and III) and
// typed helpers over it, so that tools like insert-ethers and the kickstart
// CGI do not hand-assemble SQL for routine operations. Arbitrary SQL remains
// available through Database.Query — the paper's whole point is that ad-hoc
// joins make the tools composable.

// Membership IDs installed by InitSchema, matching Table III.
const (
	MembershipFrontend       = 1
	MembershipCompute        = 2
	MembershipExternal       = 3
	MembershipEthernetSwitch = 4
	MembershipMyrinetSwitch  = 5
	MembershipPowerUnit      = 6
)

// Appliance IDs installed by InitSchema.
const (
	ApplianceFrontend = 1
	ApplianceCompute  = 2
	ApplianceSwitch   = 4
	AppliancePower    = 5
)

// InitSchema creates the standard tables and seeds the memberships and
// appliances rows from Table III, plus the site-configuration defaults a
// freshly installed frontend writes. It is idempotent: tables that already
// exist are kept and tables that already hold rows are not re-seeded, so a
// durable database recovered from a crash *during* bootstrap — some tables
// created, some seeds missing — finishes initializing instead of tripping
// over its own partial work.
func InitSchema(db *Database) error {
	creates := map[string]string{
		"nodes": `CREATE TABLE nodes (
			id INT, mac TEXT, name TEXT, membership INT,
			rack INT, rank INT, ip TEXT, comment TEXT,
			arch TEXT, cpus INT)`,
		"memberships": `CREATE TABLE memberships (id INT, name TEXT, appliance INT, compute TEXT)`,
		"appliances":  `CREATE TABLE appliances (id INT, name TEXT, graph TEXT, node TEXT)`,
		"site":        `CREATE TABLE site (name TEXT, value TEXT)`,
		"facts": `CREATE TABLE facts (
			mac TEXT, name TEXT, arch TEXT, cpus INT,
			mem_mb INT, disk_type TEXT, disk_mb INT,
			nics TEXT, reported_at INT)`,
	}
	seeds := map[string]string{
		"memberships": `INSERT INTO memberships VALUES
			(1, 'Frontend', 1, 'no'),
			(2, 'Compute', 2, 'yes'),
			(3, 'External', 1, 'no'),
			(4, 'Ethernet Switches', 4, 'no'),
			(5, 'Myrinet Switches', 4, 'no'),
			(6, 'Power Units', 5, 'no')`,
		"appliances": `INSERT INTO appliances VALUES
			(1, 'frontend', 'default', 'frontend'),
			(2, 'compute', 'default', 'compute'),
			(4, 'switch', 'default', ''),
			(5, 'power', 'default', '')`,
		"site": `INSERT INTO site VALUES
			('ClusterName', 'Rocks Cluster'),
			('PublicDomain', 'local'),
			('PrivateNetwork', '10.0.0.0'),
			('PrivateNetmask', '255.0.0.0'),
			('KickstartFrom', '10.1.1.1')`,
	}
	have := make(map[string]bool)
	for _, name := range db.TableNames() {
		have[name] = true
	}
	for _, name := range []string{"nodes", "memberships", "appliances", "site", "facts"} {
		if !have[name] {
			if _, err := db.Exec(creates[name]); err != nil {
				return fmt.Errorf("clusterdb: initializing schema: %w", err)
			}
		}
		seed, ok := seeds[name]
		if !ok {
			continue
		}
		res, err := db.Query("SELECT count(*) FROM " + name)
		if err != nil {
			return fmt.Errorf("clusterdb: initializing schema: %w", err)
		}
		if n, _ := res.Rows[0][0].AsInt(); n > 0 {
			continue // already seeded (possibly by a recovered database)
		}
		if _, err := db.Exec(seed); err != nil {
			return fmt.Errorf("clusterdb: initializing schema: %w", err)
		}
	}
	return nil
}

// Node mirrors one row of the nodes table.
type Node struct {
	ID         int
	MAC        string
	Name       string
	Membership int
	Rack       int
	Rank       int
	IP         string
	Comment    string
	Arch       string
	CPUs       int
}

// nodeFromRow reads a Node out of a row whose nodeCols are at positions c.
func nodeFromRow(row []Value, c []int) Node {
	geti := func(v Value) int { n, _ := v.AsInt(); return int(n) }
	return Node{
		ID:         geti(row[c[0]]),
		MAC:        row[c[1]].String(),
		Name:       row[c[2]].String(),
		Membership: geti(row[c[3]]),
		Rack:       geti(row[c[4]]),
		Rank:       geti(row[c[5]]),
		IP:         row[c[6]].String(),
		Comment:    row[c[7]].String(),
		Arch:       row[c[8]].String(),
		CPUs:       geti(row[c[9]]),
	}
}

const nodeCols = "id, mac, name, membership, rack, rank, ip, comment, arch, cpus"

// nodeColOrder is where nodeCols are in a row that was selected as nodeCols,
// and in a stored row of the standard schema.
var (
	nodeColNames = strings.Split(nodeCols, ", ")
	nodeColOrder = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
)

// InsertNode adds a node row, allocating the next ID if n.ID is zero. It
// returns the stored node (with the allocated ID).
func InsertNode(db *Database, n Node) (Node, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return insertNodeLocked(db, n)
}

// InsertDiscovered is insert-ethers' sequence for a new machine (§6.4) as one
// operation on the database: n arrives with Name, Rank, IP and ID unset and is
// stored as <basename>-<rack>-<rank> at the lowest free rank of its
// (membership, rack), the next free address and the next id. Allocation and
// insert share one hold of writeMu, so two sessions are never handed the same
// rank or address.
func InsertDiscovered(db *Database, n Node) (Node, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	base, err := MembershipBasename(db, n.Membership)
	if err != nil {
		return n, err
	}
	if n.Rank, err = NextRank(db, n.Membership, n.Rack); err != nil {
		return n, err
	}
	if n.IP, err = NextFreeIP(db); err != nil {
		return n, err
	}
	n.Name = base + "-" + strconv.Itoa(n.Rack) + "-" + strconv.Itoa(n.Rank)
	return insertNodeLocked(db, n)
}

// insertNodeLocked is InsertNode under the caller's hold of writeMu. The
// statement is built from the values in hand, not formatted into SQL for the
// parser to find them again; its text is what the log keeps and replays.
func insertNodeLocked(db *Database, n Node) (Node, error) {
	if n.ID == 0 {
		id, err := db.nextNodeID()
		if err != nil {
			return n, err
		}
		n.ID = id
	}
	if n.CPUs == 0 {
		n.CPUs = 1
	}
	if n.Arch == "" {
		n.Arch = "i386"
	}
	st, text, err := nodeInsert(n)
	if err == nil {
		_, err = db.mutateLocked(text, st)
	}
	return n, err
}

// nodeInsert is the INSERT of one nodes row and its text, columns as nodeCols.
func nodeInsert(n Node) (statement, string, error) {
	i := func(v int) Value { return IntValue(int64(v)) }
	return literalInsert("nodes", nodeColNames, []Value{
		i(n.ID), TextValue(n.MAC), TextValue(n.Name), i(n.Membership), i(n.Rack),
		i(n.Rank), TextValue(n.IP), TextValue(n.Comment), TextValue(n.Arch), i(n.CPUs)})
}

// sqlEscape doubles single quotes for embedding in a literal.
func sqlEscape(s string) string { return strings.ReplaceAll(s, "'", "''") }

// NodeList is node rows in id order, each read into a Node when At asks.
type NodeList struct {
	rows [][]Value
	cols []int // where nodeCols are in a row
}

// ListNodes reads the nodes table in id order: every row, from one view of
// the table (counted as the scan it is), or through SQL the rows a WHERE
// fragment (e.g. "membership = 2") keeps.
func ListNodes(db *Database, where string) (NodeList, error) {
	if where != "" {
		res, err := db.Query("SELECT " + nodeCols + " FROM nodes WHERE " + where + " ORDER BY id")
		if err != nil {
			return NodeList{}, err
		}
		return NodeList{res.Rows, nodeColOrder}, nil
	}
	views := db.view(nil, "nodes")
	if len(views) == 0 {
		return NodeList{}, fmt.Errorf("clusterdb: no such table %q", "nodes")
	}
	cols, err := views[0].columns(nodeColNames...)
	if err != nil {
		return NodeList{}, err
	}
	db.scanSelects.Add(1)
	return NodeList{views[0].inIDOrder(cols[0]), cols}, nil
}

// Len is the number of nodes.
func (l NodeList) Len() int { return len(l.rows) }

// At returns the i-th node.
func (l NodeList) At(i int) Node { return nodeFromRow(l.rows[i], l.cols) }

// Nodes returns all node rows, optionally filtered by a WHERE fragment,
// ordered by id.
func Nodes(db *Database, where string) ([]Node, error) {
	list, err := ListNodes(db, where)
	if err != nil {
		return nil, err
	}
	out := make([]Node, list.Len())
	for i := range out {
		out[i] = list.At(i)
	}
	return out, nil
}

// NodeByMAC looks a node up by Ethernet address.
func NodeByMAC(db *Database, mac string) (Node, bool, error) {
	return oneNodeByCol(db, "mac", mac)
}

// NodeByIP looks a node up by IP address — the query the kickstart CGI runs
// for every HTTP request (§6.1).
func NodeByIP(db *Database, ip string) (Node, bool, error) {
	return oneNodeByCol(db, "ip", ip)
}

// NodeByName looks a node up by hostname.
func NodeByName(db *Database, name string) (Node, bool, error) {
	return oneNodeByCol(db, "name", name)
}

// oneNodeByCol resolves a single-column equality lookup, probing the
// column's index directly when one exists (skipping SQL text construction
// and parsing entirely) and falling back to the scan-path query when not.
// Both paths report duplicates with the same error.
func oneNodeByCol(db *Database, col, val string) (Node, bool, error) {
	rows, ok := db.pointLookup("nodes", col, TextValue(val))
	if !ok {
		return oneNode(db, fmt.Sprintf("%s = '%s'", col, sqlEscape(val)))
	}
	switch len(rows) {
	case 0:
		return Node{}, false, nil
	case 1:
		return nodeFromRow(rows[0], nodeColOrder), true, nil
	}
	return Node{}, false, fmt.Errorf("clusterdb: %d nodes match %s = '%s'; expected at most one",
		len(rows), col, sqlEscape(val))
}

func oneNode(db *Database, where string) (Node, bool, error) {
	ns, err := Nodes(db, where)
	if err != nil || len(ns) == 0 {
		return Node{}, false, err
	}
	if len(ns) > 1 {
		// Unique indexes make non-empty duplicates impossible, but rows
		// without an identity yet (empty MAC on a replaced chassis, say) may
		// legally collide; picking an arbitrary one would misdirect a
		// kickstart or a replacement. Surface it.
		return Node{}, false, fmt.Errorf("clusterdb: %d nodes match %s; expected at most one", len(ns), where)
	}
	return ns[0], true, nil
}

// SetNodeArch records the architecture the installer actually detected for
// a node — the kickstart CGI's one write path (§6.1). The value is escaped
// before it reaches the SQL text; callers validate it against the known
// architecture set first.
func SetNodeArch(db *Database, id int, arch string) error {
	_, err := db.Exec(fmt.Sprintf("UPDATE nodes SET arch = '%s' WHERE id = %d", sqlEscape(arch), id))
	return err
}

// RebindNodeMAC points an existing node row (by hostname) at a new Ethernet
// address — the insert-ethers --replace operation. Both values are escaped
// here so callers can pass syslog-supplied MACs and admin-typed hostnames
// straight through.
func RebindNodeMAC(db *Database, name, mac string) error {
	_, err := db.Exec(fmt.Sprintf("UPDATE nodes SET mac = '%s' WHERE name = '%s'",
		sqlEscape(mac), sqlEscape(name)))
	return err
}

// DeleteNode removes a node row by name.
func DeleteNode(db *Database, name string) error {
	_, err := db.Exec(fmt.Sprintf("DELETE FROM nodes WHERE name = '%s'", sqlEscape(name)))
	return err
}

// ApplianceForMembership resolves a membership ID to the graph root node
// name of its appliance (e.g. Compute → "compute"), where the kickstart graph
// traversal starts: the join's first row, probed through the two id indexes.
func ApplianceForMembership(db *Database, membership int) (name, graph, rootNode string, err error) {
	members, ok := db.pointLookup("memberships", "id", IntValue(int64(membership)))
	for i := 0; ok && i < len(members); i++ {
		var apps [][]Value // stored rows, in the standard schema's column order
		if apps, ok = db.pointLookup("appliances", "id", members[i][2]); ok && len(apps) > 0 {
			return apps[0][1].String(), apps[0][2].String(), apps[0][3].String(), nil
		}
	}
	if !ok {
		res, err := db.Query(fmt.Sprintf(
			`SELECT appliances.name, appliances.graph, appliances.node
			 FROM memberships, appliances
			 WHERE memberships.id = %d AND memberships.appliance = appliances.id`, membership))
		if err != nil {
			return "", "", "", err
		}
		if len(res.Rows) > 0 {
			r := res.Rows[0]
			return r[0].String(), r[1].String(), r[2].String(), nil
		}
	}
	return "", "", "", fmt.Errorf("clusterdb: membership %d has no appliance", membership)
}

// SiteValue reads one site-configuration attribute.
func SiteValue(db *Database, name string) (string, error) {
	res, err := db.Query(fmt.Sprintf("SELECT value FROM site WHERE name = '%s'", sqlEscape(name)))
	if err != nil {
		return "", err
	}
	if len(res.Rows) == 0 {
		return "", fmt.Errorf("clusterdb: no site attribute %q", name)
	}
	return res.Rows[0][0].String(), nil
}

// SetSiteValue writes one site-configuration attribute, inserting or
// updating as needed: one upsert keyed by name (site_name), so two writers
// of a new attribute never both insert.
func SetSiteValue(db *Database, name, value string) error {
	return upsert(db, "site", siteColNames, []Value{TextValue(name), TextValue(value)})
}

var siteColNames = []string{"name", "value"}

var errIPExhausted = errors.New("clusterdb: private address space exhausted")

// NextFreeIP allocates the next unused address for a new compute node.
// Rocks hands out private addresses from the top of the 10.x network
// downward (Table II: compute-0-0 is 10.255.255.245 on a net whose switches
// and servers already hold .253 and .249); the frontend's 10.1.1.1 is
// excluded by construction. The answer is always the highest address in
// 10.0.0.0–10.255.255.254 no row holds, so an address freed by a deleted
// node is reused before the allocation moves further down.
//
// The nodes table's allocation cursor (alloc.go) makes this one index probe
// however many addresses are allocated.
func NextFreeIP(db *Database) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := db.cursorLocked()
	if err != nil {
		return "", err
	}
	// Start at the cursor and still verify every candidate against the
	// nodes_ip index, so the answer is the one the full top-down probe gives.
	a := c.ipNext
	for a >= ipBottom && c.taken(a) {
		a--
	}
	db.allocProbes.Add(uint64(c.ipNext-a) + 1)
	if a < ipBottom {
		return "", errIPExhausted
	}
	return string(appendIPv4(nil, a)), nil
}

// NextRank returns the next free rank within a rack for the given
// membership: insert-ethers names nodes compute-<rack>-<rank> in discovery
// order (§6.4). The allocation cursor (alloc.go) holds the answer: the lowest
// rank no row of the (membership, rack) holds.
func NextRank(db *Database, membership, rack int) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := db.cursorLocked()
	if err != nil {
		return 0, err
	}
	return int(c.rankNext[[2]int64{int64(membership), int64(rack)}]), nil
}

// MembershipBasename returns the hostname prefix for a membership: the
// lower-cased first word of the membership name ("Ethernet Switches" →
// "network" is special-cased to match Table II's network-0-0 row; everything
// else uses the first word, so Compute → compute, NFS → nfs).
func MembershipBasename(db *Database, membership int) (string, error) {
	res, err := db.Query(fmt.Sprintf("SELECT name FROM memberships WHERE id = %d", membership))
	if err != nil {
		return "", err
	}
	if len(res.Rows) == 0 {
		return "", fmt.Errorf("clusterdb: no membership %d", membership)
	}
	name := res.Rows[0][0].String()
	if strings.HasPrefix(name, "Ethernet Switch") {
		return "network", nil
	}
	first := strings.Fields(strings.ToLower(name))[0]
	return first, nil
}

// MembershipIDByName resolves a membership name ("Compute") to its ID.
func MembershipIDByName(db *Database, name string) (int, error) {
	res, err := db.Query(fmt.Sprintf("SELECT id FROM memberships WHERE name = '%s'", sqlEscape(name)))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, fmt.Errorf("clusterdb: no membership named %q", name)
	}
	id, _ := res.Rows[0][0].AsInt()
	return int(id), nil
}

// AddMembership registers a new membership (e.g. the NFS and Web rows that
// appear in Table II beyond the default set) and returns its ID.
func AddMembership(db *Database, name string, appliance int, compute bool) (int, error) {
	res, err := db.Query("SELECT id FROM memberships ORDER BY id DESC LIMIT 1")
	if err != nil {
		return 0, err
	}
	id := 1
	if len(res.Rows) > 0 {
		last, _ := res.Rows[0][0].AsInt()
		id = int(last) + 1
	}
	c := "no"
	if compute {
		c = "yes"
	}
	_, err = db.Exec(fmt.Sprintf("INSERT INTO memberships VALUES (%d, '%s', %d, '%s')",
		id, sqlEscape(name), appliance, c))
	return id, err
}

// SortNodesByLocation orders nodes by (rack, rank) — physical order.
func SortNodesByLocation(ns []Node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Rack != ns[j].Rack {
			return ns[i].Rack < ns[j].Rack
		}
		return ns[i].Rank < ns[j].Rank
	})
}
