// Package dnswire implements the DNS wire format of RFC 1035 together
// with the EDNS(0) extension mechanism (RFC 6891) and the EDNS Client
// Subnet option (RFC 7871).
//
// The package is self-contained (standard library only) and provides
// everything the rest of the repository needs to act as a real DNS
// client or server: message packing and unpacking with name
// compression, the resource-record types used by CDN request routing
// (A, AAAA, CNAME, NS, SOA, PTR, MX, TXT, SRV, OPT), and TCP length
// framing helpers.
//
// Messages are plain Go values. A zero Message is a valid (empty)
// query; SetQuestion and SetReply cover the two common construction
// patterns:
//
//	q := new(dnswire.Message)
//	q.SetQuestion("video.demo1.mycdn.ciab.test.", dnswire.TypeA)
//	wire, err := q.Pack()
package dnswire

import (
	"fmt"
	"slices"
	"strings"
)

// Type is a DNS resource record type (RFC 1035 §3.2.2 and successors).
type Type uint16

// Resource record types understood by this package. Unknown types are
// carried opaquely via the Generic record.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeSRV   Type = 33
	TypeOPT   Type = 41
	TypeIXFR  Type = 251
	TypeAXFR  Type = 252
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeNone:  "NONE",
	TypeA:     "A",
	TypeNS:    "NS",
	TypeCNAME: "CNAME",
	TypeSOA:   "SOA",
	TypePTR:   "PTR",
	TypeMX:    "MX",
	TypeTXT:   "TXT",
	TypeAAAA:  "AAAA",
	TypeSRV:   "SRV",
	TypeOPT:   "OPT",
	TypeIXFR:  "IXFR",
	TypeAXFR:  "AXFR",
	TypeANY:   "ANY",
}

// String returns the conventional mnemonic for t, or "TYPE<n>" for
// types this package does not know by name (RFC 3597 presentation).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// NamedTypes returns the types String knows by name, ascending.
func NamedTypes() []Type { return sortedKeys(typeNames) }

// Class is a DNS class. Only IN is used in practice; ANY appears in
// queries and NONE in dynamic update.
type Class uint16

// DNS classes.
const (
	ClassINET Class = 1
	ClassNONE Class = 254
	ClassANY  Class = 255
)

// String returns the conventional mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassINET:
		return "IN"
	case ClassNONE:
		return "NONE"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// Opcode is the kind of query carried in a message header.
type Opcode uint8

// Opcodes (RFC 1035 §4.1.1, RFC 2136).
const (
	OpcodeQuery  Opcode = 0
	OpcodeIQuery Opcode = 1
	OpcodeStatus Opcode = 2
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

// String returns the conventional mnemonic for o.
func (o Opcode) String() string {
	switch o {
	case OpcodeQuery:
		return "QUERY"
	case OpcodeIQuery:
		return "IQUERY"
	case OpcodeStatus:
		return "STATUS"
	case OpcodeNotify:
		return "NOTIFY"
	case OpcodeUpdate:
		return "UPDATE"
	}
	return fmt.Sprintf("OPCODE%d", uint8(o))
}

// Rcode is a response code. Values above 15 require EDNS(0) extended
// rcodes and are assembled from the OPT TTL field during unpacking.
type Rcode uint16

// Response codes (RFC 1035 §4.1.1, RFC 6891 §6.1.3).
const (
	RcodeSuccess        Rcode = 0 // NOERROR
	RcodeFormatError    Rcode = 1 // FORMERR
	RcodeServerFailure  Rcode = 2 // SERVFAIL
	RcodeNameError      Rcode = 3 // NXDOMAIN
	RcodeNotImplemented Rcode = 4 // NOTIMP
	RcodeRefused        Rcode = 5 // REFUSED
	RcodeBadVers        Rcode = 16
)

var rcodeNames = map[Rcode]string{
	RcodeSuccess:        "NOERROR",
	RcodeFormatError:    "FORMERR",
	RcodeServerFailure:  "SERVFAIL",
	RcodeNameError:      "NXDOMAIN",
	RcodeNotImplemented: "NOTIMP",
	RcodeRefused:        "REFUSED",
	RcodeBadVers:        "BADVERS",
}

// String returns the conventional mnemonic for r.
func (r Rcode) String() string {
	if s, ok := rcodeNames[r]; ok {
		return s
	}
	return fmt.Sprintf("RCODE%d", uint16(r))
}

// NamedRcodes returns the response codes String knows by name,
// ascending.
func NamedRcodes() []Rcode { return sortedKeys(rcodeNames) }

func sortedKeys[K Type | Rcode](m map[K]string) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// MaxUDPSize is the conventional maximum DNS payload carried over UDP
// without EDNS(0).
const MaxUDPSize = 512

// DefaultEDNSSize is the EDNS(0) UDP payload size this package
// advertises by default.
const DefaultEDNSSize = 1232

// MaxMessageSize is the largest message Pack will produce and Unpack
// will accept; it matches the TCP two-byte length prefix limit.
const MaxMessageSize = 65535

// CanonicalName lower-cases a domain name and ensures it is fully
// qualified (has a trailing dot). It is the form used for map keys
// throughout this repository.
func CanonicalName(name string) string {
	name = strings.ToLower(name)
	if name == "" {
		return "."
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

// IsSubdomain reports whether child is equal to or beneath parent.
// Both are compared as CanonicalName gives them, letter case aside and
// the trailing dot optional, so "Video.CDN.test" is a subdomain of
// "cdn.test.". The comparison is made in place: no name is copied.
func IsSubdomain(parent, child string) bool {
	p, c := strings.TrimSuffix(parent, "."), strings.TrimSuffix(child, ".")
	if p == "" {
		return true
	}
	n := len(c) - len(p)
	return n >= 0 && (n == 0 || c[n-1] == '.') && strings.EqualFold(c[n:], p)
}

// CountLabels returns the number of labels in name; the root name has
// zero labels.
func CountLabels(name string) int {
	name = CanonicalName(name)
	if name == "." {
		return 0
	}
	return strings.Count(name, ".")
}

// Parent returns the name with its leftmost label removed. The parent
// of a single-label name (and of the root) is the root ".".
func Parent(name string) string {
	name = CanonicalName(name)
	if name == "." {
		return "."
	}
	i := strings.Index(name, ".")
	if i < 0 || i+1 >= len(name) {
		return "."
	}
	return name[i+1:]
}
