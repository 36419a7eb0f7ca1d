package clusterdb

import (
	"fmt"
	"strconv"
	"unsafe"
)

// Report generators ("dbreport" in Rocks): each renders a service-specific
// configuration file from database state (§6.4). Insert-ethers asks for them
// after every discovery so the running services always reflect the nodes
// table; the frontend coalesces those requests into passes (core/reports.go).
//
// One pass is one read: RenderReports copies the table row lists under a
// single hold of the read lock (Database.view) and renders /etc/hosts,
// dhcpd.conf, the PBS nodes file and the SQL dump from that copy by direct
// appends — the three files in a single walk over the nodes rows in id order
// — so all four outputs describe the same node set, no reader or writer
// waits while they are built, and a pass costs one traversal instead of five
// SQL reads. HostsReport, DHCPReport and PBSNodesReport render one file each
// through the same code.

// Reports holds one pass's output. The zero value is ready to use; a Reports
// handed to RenderReports again reuses its buffers.
type Reports struct {
	Hosts    []byte // /etc/hosts
	DHCP     []byte // /etc/dhcpd.conf
	PBSNodes []byte // the PBS server's nodes file
	Dump     []byte // Database.Dump
	// Bound lists the nodes dhcpd.conf holds a host block for — every row
	// with both a MAC and an address — in file order: the DHCP server's
	// binding table as data.
	Bound []DHCPHost

	views []tableView
}

// DHCPHost is one static host entry of the DHCP configuration.
type DHCPHost struct{ MAC, IP, Name string }

// reportSet selects which outputs a render produces.
type reportSet uint

const (
	reportHosts reportSet = 1 << iota
	reportDHCP
	reportPBS
)

// RenderReports renders every generated file and the dump from one
// consistent read of the database.
func (d *Database) RenderReports(r *Reports) error {
	r.views = d.view(r.views)
	r.Dump = appendDump(sized(r.Dump, dumpSizeHint(r.views)), r.views)
	return r.render(reportHosts | reportDHCP | reportPBS)
}

// renderOne renders a single report, from a view of the tables it reads, for
// the per-file entry points.
func renderOne(db *Database, want reportSet, tables ...string) (Reports, error) {
	r := Reports{views: db.view(nil, tables...)}
	err := r.render(want)
	return r, err
}

// text hands a buffer over as a string, not a copy of it (a dhcpd.conf is 140
// bytes a node). Only for a buffer the caller built and lets go of as it
// returns: nothing may write to it again.
func text(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// HostsReport renders /etc/hosts: localhost, then one line per node with its
// private address, fully-qualified name, and short name.
func HostsReport(db *Database) (string, error) {
	r, err := renderOne(db, reportHosts, "nodes", "site")
	return text(r.Hosts), err
}

// DHCPReport renders /etc/dhcpd.conf: one subnet declaration for the private
// network and a host block binding every known MAC to its fixed address.
// Unknown MACs fall through to insert-ethers discovery.
func DHCPReport(db *Database) (string, error) {
	r, err := renderOne(db, reportDHCP, "nodes", "site")
	return text(r.DHCP), err
}

// PBSNodesReport renders the PBS server's nodes file: one line per compute
// node with its processor count (np=) — the membership join decides what
// counts as a compute node.
func PBSNodesReport(db *Database) (string, error) {
	r, err := renderOne(db, reportPBS, "nodes", "memberships")
	return text(r.PBSNodes), err
}

// sized empties b for reuse; a fresh buffer is first given room for n bytes,
// or it would double its way up through several copies (a reused one already
// has the last pass's size). The callers' per-row figures are typical line
// lengths, not limits.
func sized(b []byte, n int) []byte {
	if b == nil {
		return make([]byte, 0, n)
	}
	return b[:0]
}

// table finds a viewed table by name.
func (r *Reports) table(name string) (*tableView, error) {
	for i := range r.views {
		if r.views[i].t.name == name {
			return &r.views[i], nil
		}
	}
	return nil, fmt.Errorf("clusterdb: no such table %q", name)
}

// columns resolves column names to positions in a viewed table.
func (v *tableView) columns(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, name := range names {
		if out[i] = v.t.colIndex(name); out[i] < 0 {
			return nil, fmt.Errorf("clusterdb: table %q has no column %q", v.t.name, name)
		}
	}
	return out, nil
}

// siteValue is SiteValue over the view: the first site row with that name.
func (r *Reports) siteValue(name string) (string, error) {
	site, err := r.table("site")
	if err != nil {
		return "", err
	}
	c, err := site.columns("name", "value")
	if err != nil {
		return "", err
	}
	for _, row := range site.rows {
		if Equal(row[c[0]], TextValue(name)) {
			return row[c[1]].String(), nil
		}
	}
	return "", fmt.Errorf("clusterdb: no site attribute %q", name)
}

// render builds the wanted files from r.views. Rows are visited in id order
// (the ORDER BY id every report has always had; storage order is already id
// order unless ids were inserted out of sequence), each row contributing its
// line or block to every wanted file in the same step.
func (r *Reports) render(want reportSet) error {
	nodes, err := r.table("nodes")
	if err != nil {
		return err
	}
	nc, err := nodes.columns("id", "mac", "name", "ip", "membership", "cpus")
	if err != nil {
		return err
	}
	idCol, macCol, nameCol, ipCol, memberCol, cpusCol := nc[0], nc[1], nc[2], nc[3], nc[4], nc[5]

	domain := "local"
	if want&reportHosts != 0 {
		if v, err := r.siteValue("PublicDomain"); err == nil {
			domain = v
		}
		r.Hosts = append(sized(r.Hosts, 128+64*len(nodes.rows)), "# /etc/hosts -- generated by dbreport; do not edit by hand\n"+
			"127.0.0.1\tlocalhost.localdomain localhost\n"...)
	}
	if want&reportDHCP != 0 {
		var site [3]string
		for i, name := range []string{"PrivateNetwork", "PrivateNetmask", "KickstartFrom"} {
			if site[i], err = r.siteValue(name); err != nil {
				return err
			}
		}
		b := append(sized(r.DHCP, 256+144*len(nodes.rows)), "# /etc/dhcpd.conf -- generated by dbreport; do not edit by hand\n"...)
		b = append(append(append(append(append(b, "subnet "...), site[0]...), " netmask "...), site[1]...), " {\n"...)
		b = append(append(append(b, "\toption domain-name-servers "...), site[2]...), ";\n"...)
		b = append(append(append(b, "\tnext-server "...), site[2]...), ";\n"...)
		r.DHCP = append(b, "}\n\n"...)
		if r.Bound == nil {
			r.Bound = make([]DHCPHost, 0, len(nodes.rows))
		}
		r.Bound = r.Bound[:0]
	}
	// computeIDs are the ids of the memberships marked compute='yes': a node
	// gets one PBS line per such membership its own matches — the join
	// nodes.membership = memberships.id AND memberships.compute = 'yes'.
	var computeIDs []Value
	if want&reportPBS != 0 {
		memberships, err := r.table("memberships")
		if err != nil {
			return err
		}
		mc, err := memberships.columns("id", "compute")
		if err != nil {
			return err
		}
		for _, row := range memberships.rows {
			if Equal(row[mc[1]], TextValue("yes")) {
				computeIDs = append(computeIDs, row[mc[0]])
			}
		}
		r.PBSNodes = append(sized(r.PBSNodes, 128+24*len(nodes.rows)), "# PBS nodes file -- generated by dbreport; do not edit by hand\n"...)
	}

	// Sorting the view's copy is safe: the dump is already rendered.
	for _, row := range nodes.inIDOrder(idCol) {
		mac, name, ip := row[macCol].String(), row[nameCol].String(), row[ipCol].String()
		if want&reportHosts != 0 && ip != "" {
			b := append(append(r.Hosts, ip...), '\t')
			b = append(append(append(append(b, name...), '.'), domain...), ' ')
			r.Hosts = append(append(b, name...), '\n')
		}
		if want&reportDHCP != 0 && mac != "" && ip != "" {
			b := append(append(append(r.DHCP, "host "...), name...), " {\n"...)
			b = append(append(append(b, "\thardware ethernet "...), mac...), ";\n"...)
			b = append(append(append(b, "\tfixed-address "...), ip...), ";\n"...)
			b = append(append(append(b, "\toption host-name \""...), name...), "\";\n"...)
			r.DHCP = append(b, "}\n"...)
			r.Bound = append(r.Bound, DHCPHost{MAC: mac, IP: ip, Name: name})
		}
		for _, id := range computeIDs {
			if !Equal(row[memberCol], id) {
				continue
			}
			cpus, _ := row[cpusCol].AsInt()
			if cpus < 1 {
				cpus = 1
			}
			b := append(append(r.PBSNodes, name...), " np="...)
			r.PBSNodes = append(strconv.AppendInt(b, cpus, 10), '\n')
		}
	}
	return nil
}

// NodesTableReport formats the nodes table exactly as the paper's Table II
// presents it (ID, MAC, Name, Membership, Rack, Rank, IP, Comment).
func NodesTableReport(db *Database) (string, error) {
	res, err := db.Query(
		`SELECT id AS ID, mac AS MAC, name AS Name, membership AS Membership,
		        rack AS Rack, rank AS Rank, ip AS IP, comment AS Comment
		 FROM nodes ORDER BY id`)
	if err != nil {
		return "", err
	}
	res.Columns = []string{"ID", "MAC", "Name", "Membership", "Rack", "Rank", "IP", "Comment"}
	return res.Format(), nil
}

// MembershipsTableReport formats the memberships table as Table III does.
func MembershipsTableReport(db *Database) (string, error) {
	res, err := db.Query(`SELECT id, name, appliance, compute FROM memberships ORDER BY id`)
	if err != nil {
		return "", err
	}
	res.Columns = []string{"ID", "Name", "Appliance", "Compute"}
	return res.Format(), nil
}
