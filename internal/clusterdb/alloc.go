package clusterdb

import "strconv"

// The private network NextFreeIP allocates from, as host-order integers:
// addresses are handed out from 10.255.255.254 downward and the space is
// exhausted below 10.0.0.0.
const (
	ipTop    uint32 = 10<<24 | 255<<16 | 255<<8 | 254
	ipBottom uint32 = 10 << 24
)

// appendIPv4 appends the dotted-quad rendering of a host-order address.
func appendIPv4(b []byte, a uint32) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	for shift := 16; shift >= 0; shift -= 8 {
		b = append(b, '.')
		b = strconv.AppendUint(b, uint64(a>>shift&0xff), 10)
	}
	return b
}

// allocCursor is the nodes table's allocation state: the two answers
// InsertNode and NextFreeIP would otherwise recompute per discovery by
// scanning the table (max(id)) and probing down through every allocated
// address. It is guarded by Database.mu exactly like the indexes.
//
// Invariant, for the table's rows as they stand:
//
//   - maxID is the largest non-NULL id (hasID false when there is none);
//   - every address in (ipNext, ipTop] is a key of the nodes_ip index, and
//     ipNext itself is not (or ipNext < ipBottom: the space is exhausted).
//
// An INSERT can only add ids and addresses, so it advances the cursor in
// amortized O(1): ipNext never revisits an address. Anything that can remove
// an id or free an address — UPDATE of id or ip, DELETE, a bulk load —
// rebuilds the cursor from the rows once, so a hole opened above ipNext is
// found again and reused top-down exactly as the scan did.
type allocCursor struct {
	idCol, ipCol int
	ipIdx        *index

	maxID  int64
	hasID  bool
	ipNext uint32
}

// attachAlloc gives the nodes table its cursor, provided it has the id and
// ip columns and the single-column ip index the cursor verifies against; a
// foreign table that merely shares the name stays plain and its callers scan.
func (t *table) attachAlloc() {
	if t.name != "nodes" {
		return
	}
	idCol, ipCol := t.colIndex("id"), t.colIndex("ip")
	if idCol < 0 || ipCol < 0 || t.cols[idCol].Type != TypeInt || t.cols[ipCol].Type != TypeText {
		return
	}
	for _, ix := range t.indexes {
		if len(ix.colIdx) == 1 && ix.colIdx[0] == ipCol {
			t.alloc = &allocCursor{idCol: idCol, ipCol: ipCol, ipIdx: ix, ipNext: ipTop}
			return
		}
	}
}

// taken probes the ip index for one address. Both buffers stay on the stack:
// the probe runs once per discovery and once per address NextFreeIP skips.
func (c *allocCursor) taken(a uint32) bool {
	var ip [len("255.255.255.255")]byte
	var buf [2 + len(ip)]byte
	key := appendKeyPart(buf[:0], TextValue(string(appendIPv4(ip[:0], a))))
	return len(c.ipIdx.buckets[string(key)]) > 0
}

// noteInsert advances the cursor past a row that was just indexed.
func (c *allocCursor) noteInsert(row []Value) {
	if id := row[c.idCol]; !id.Null && (!c.hasID || id.Int > c.maxID) {
		c.maxID, c.hasID = id.Int, true
	}
	for c.ipNext >= ipBottom && c.taken(c.ipNext) {
		c.ipNext--
	}
}

// moved reports whether an UPDATE changed a cell the cursor summarizes.
func (c *allocCursor) moved(oldRow, newRow []Value) bool {
	return oldRow[c.idCol] != newRow[c.idCol] || oldRow[c.ipCol] != newRow[c.ipCol]
}

// rebuild recomputes the cursor from the rows and the (already current) ip
// index: O(rows) once, after a mutation that may have opened a hole.
func (c *allocCursor) rebuild(rows [][]Value) {
	c.maxID, c.hasID, c.ipNext = 0, false, ipTop
	for _, row := range rows {
		c.noteInsert(row)
	}
}

// cursorLocked returns the nodes table's cursor, or nil when index routing
// is off or the table carries none (the callers' callers then scan). Callers
// hold d.mu.
func (d *Database) cursorLocked() *allocCursor {
	if !d.indexRouting.Load() {
		return nil
	}
	if t, ok := d.tables["nodes"]; ok {
		return t.alloc
	}
	return nil
}

// nextNodeID returns max(id)+1 from the cursor; ok is false without one.
func (d *Database) nextNodeID() (id int, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := d.cursorLocked()
	if c == nil {
		return 0, false
	}
	if !c.hasID {
		return 1, true
	}
	return int(c.maxID) + 1, true
}

// nextFreeIP answers NextFreeIP from the cursor: it starts at ipNext and
// still verifies every candidate against the nodes_ip index, so the answer
// is the one the full top-down probe would give. ip is empty when the space
// is exhausted; ok is false without a cursor.
func (d *Database) nextFreeIP() (ip string, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := d.cursorLocked()
	if c == nil {
		return "", false
	}
	a := c.ipNext
	for a >= ipBottom && c.taken(a) {
		a--
	}
	d.allocProbes.Add(uint64(c.ipNext-a) + 1)
	if a < ipBottom {
		return "", true
	}
	return string(appendIPv4(nil, a)), true
}
