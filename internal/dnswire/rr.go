package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// RRHeader is the owner name, type, class, and TTL shared by every
// resource record.
type RRHeader struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
}

// RR is a single DNS resource record. Concrete implementations carry
// the typed rdata; unknown types round-trip through Generic.
type RR interface {
	// Header returns the record's shared header fields.
	Header() *RRHeader
	// String renders the record in zone-file presentation format.
	String() string
	// Clone returns a deep copy of the record.
	Clone() RR

	packData(b []byte, c *compressor) ([]byte, error)
	unpackData(msg []byte, off, rdlen int) error
}

func headerString(h *RRHeader) string {
	return fmt.Sprintf("%s\t%d\t%s\t%s", h.Name, h.TTL, h.Class, h.Type)
}

// packRR appends the full wire form of rr (header + rdata) to b.
func packRR(b []byte, rr RR, c *compressor) ([]byte, error) {
	h := rr.Header()
	var err error
	b, err = packName(b, h.Name, c)
	if err != nil {
		return nil, fmt.Errorf("packing owner of %s record %q: %w", h.Type, h.Name, err)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(h.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(h.Class))
	b = binary.BigEndian.AppendUint32(b, h.TTL)
	lenAt := len(b)
	b = append(b, 0, 0) // rdlength placeholder
	b, err = rr.packData(b, c)
	if err != nil {
		return nil, fmt.Errorf("packing rdata of %s record %q: %w", h.Type, h.Name, err)
	}
	rdlen := len(b) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, ErrBadRdata
	}
	binary.BigEndian.PutUint16(b[lenAt:], uint16(rdlen))
	return b, nil
}

// unpackRR decodes one resource record starting at off and returns it
// together with the offset just past the record.
func unpackRR(msg []byte, off int) (RR, int, error) {
	name, off, err := unpackName(msg, off)
	if err != nil {
		return nil, 0, err
	}
	if off+10 > len(msg) {
		return nil, 0, ErrBufferTooSmall
	}
	h := RRHeader{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(msg[off:])),
		Class: Class(binary.BigEndian.Uint16(msg[off+2:])),
		TTL:   binary.BigEndian.Uint32(msg[off+4:]),
	}
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return nil, 0, ErrBufferTooSmall
	}
	rr := newRR(h.Type)
	*rr.Header() = h
	if err := rr.unpackData(msg, off, rdlen); err != nil {
		return nil, 0, fmt.Errorf("unpacking %s record %q: %w", h.Type, h.Name, err)
	}
	return rr, off + rdlen, nil
}

// unpackLastName decodes the name at off that must end an RDATA at end.
func unpackLastName(msg []byte, off, end int) (string, error) {
	name, next, err := unpackName(msg, off)
	if err == nil && next != end {
		err = ErrBadRdata
	}
	return name, err
}

// newRR returns a zero record of the concrete type for t.
func newRR(t Type) RR {
	switch t {
	case TypeA:
		return new(A)
	case TypeAAAA:
		return new(AAAA)
	case TypeCNAME:
		return new(CNAME)
	case TypeNS:
		return new(NS)
	case TypeSOA:
		return new(SOA)
	case TypePTR:
		return new(PTR)
	case TypeMX:
		return new(MX)
	case TypeTXT:
		return new(TXT)
	case TypeSRV:
		return new(SRV)
	case TypeOPT:
		return new(OPT)
	}
	return new(Generic)
}

// A is an IPv4 address record.
type A struct {
	Hdr  RRHeader
	Addr netip.Addr // must be a valid IPv4 address
}

// Header implements RR.
func (r *A) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *A) String() string { return headerString(&r.Hdr) + "\t" + r.Addr.String() }

// Clone implements RR.
func (r *A) Clone() RR { c := *r; return &c }

func (r *A) packData(b []byte, _ *compressor) ([]byte, error) {
	if !r.Addr.Is4() && !r.Addr.Is4In6() {
		return nil, fmt.Errorf("%w: A record address %v is not IPv4", ErrBadRdata, r.Addr)
	}
	a4 := r.Addr.As4()
	return append(b, a4[:]...), nil
}

func (r *A) unpackData(msg []byte, off, rdlen int) error {
	if rdlen != 4 {
		return fmt.Errorf("%w: A rdata length %d", ErrBadRdata, rdlen)
	}
	r.Addr = netip.AddrFrom4([4]byte(msg[off : off+4]))
	return nil
}

// AAAA is an IPv6 address record.
type AAAA struct {
	Hdr  RRHeader
	Addr netip.Addr // must be a valid IPv6 address
}

// Header implements RR.
func (r *AAAA) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *AAAA) String() string { return headerString(&r.Hdr) + "\t" + r.Addr.String() }

// Clone implements RR.
func (r *AAAA) Clone() RR { c := *r; return &c }

func (r *AAAA) packData(b []byte, _ *compressor) ([]byte, error) {
	if !r.Addr.Is6() || r.Addr.Is4In6() {
		return nil, fmt.Errorf("%w: AAAA record address %v is not IPv6", ErrBadRdata, r.Addr)
	}
	a16 := r.Addr.As16()
	return append(b, a16[:]...), nil
}

func (r *AAAA) unpackData(msg []byte, off, rdlen int) error {
	if rdlen != 16 {
		return fmt.Errorf("%w: AAAA rdata length %d", ErrBadRdata, rdlen)
	}
	r.Addr = netip.AddrFrom16([16]byte(msg[off : off+16]))
	return nil
}

// CNAME is a canonical-name (alias) record; the backbone of CDN
// cascades.
type CNAME struct {
	Hdr    RRHeader
	Target string
}

// Header implements RR.
func (r *CNAME) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *CNAME) String() string { return headerString(&r.Hdr) + "\t" + r.Target }

// Clone implements RR.
func (r *CNAME) Clone() RR { c := *r; return &c }

func (r *CNAME) packData(b []byte, c *compressor) ([]byte, error) {
	return packName(b, r.Target, c)
}

func (r *CNAME) unpackData(msg []byte, off, rdlen int) (err error) {
	r.Target, err = unpackLastName(msg, off, off+rdlen)
	return err
}

// NS is a name-server delegation record.
type NS struct {
	Hdr RRHeader
	NS  string
}

// Header implements RR.
func (r *NS) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *NS) String() string { return headerString(&r.Hdr) + "\t" + r.NS }

// Clone implements RR.
func (r *NS) Clone() RR { c := *r; return &c }

func (r *NS) packData(b []byte, c *compressor) ([]byte, error) {
	return packName(b, r.NS, c)
}

func (r *NS) unpackData(msg []byte, off, rdlen int) (err error) {
	r.NS, err = unpackLastName(msg, off, off+rdlen)
	return err
}

// PTR is a pointer record (reverse lookups).
type PTR struct {
	Hdr RRHeader
	PTR string
}

// Header implements RR.
func (r *PTR) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *PTR) String() string { return headerString(&r.Hdr) + "\t" + r.PTR }

// Clone implements RR.
func (r *PTR) Clone() RR { c := *r; return &c }

func (r *PTR) packData(b []byte, c *compressor) ([]byte, error) {
	return packName(b, r.PTR, c)
}

func (r *PTR) unpackData(msg []byte, off, rdlen int) (err error) {
	r.PTR, err = unpackLastName(msg, off, off+rdlen)
	return err
}

// SOA is a start-of-authority record.
type SOA struct {
	Hdr     RRHeader
	NS      string
	Mbox    string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	MinTTL  uint32 // negative-caching TTL (RFC 2308)
}

// Header implements RR.
func (r *SOA) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *SOA) String() string {
	return fmt.Sprintf("%s\t%s %s %d %d %d %d %d", headerString(&r.Hdr),
		r.NS, r.Mbox, r.Serial, r.Refresh, r.Retry, r.Expire, r.MinTTL)
}

// Clone implements RR.
func (r *SOA) Clone() RR { c := *r; return &c }

func (r *SOA) packData(b []byte, c *compressor) ([]byte, error) {
	var err error
	if b, err = packName(b, r.NS, c); err != nil {
		return nil, err
	}
	if b, err = packName(b, r.Mbox, c); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint32(b, r.Serial)
	b = binary.BigEndian.AppendUint32(b, r.Refresh)
	b = binary.BigEndian.AppendUint32(b, r.Retry)
	b = binary.BigEndian.AppendUint32(b, r.Expire)
	b = binary.BigEndian.AppendUint32(b, r.MinTTL)
	return b, nil
}

func (r *SOA) unpackData(msg []byte, off, rdlen int) error {
	end := off + rdlen
	var err error
	if r.NS, off, err = unpackName(msg, off); err != nil {
		return err
	}
	if r.Mbox, off, err = unpackName(msg, off); err != nil {
		return err
	}
	if off+20 != end {
		return ErrBadRdata
	}
	r.Serial = binary.BigEndian.Uint32(msg[off:])
	r.Refresh = binary.BigEndian.Uint32(msg[off+4:])
	r.Retry = binary.BigEndian.Uint32(msg[off+8:])
	r.Expire = binary.BigEndian.Uint32(msg[off+12:])
	r.MinTTL = binary.BigEndian.Uint32(msg[off+16:])
	return nil
}

// MX is a mail-exchanger record.
type MX struct {
	Hdr        RRHeader
	Preference uint16
	MX         string
}

// Header implements RR.
func (r *MX) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *MX) String() string {
	return fmt.Sprintf("%s\t%d %s", headerString(&r.Hdr), r.Preference, r.MX)
}

// Clone implements RR.
func (r *MX) Clone() RR { c := *r; return &c }

func (r *MX) packData(b []byte, c *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, r.Preference)
	return packName(b, r.MX, c)
}

func (r *MX) unpackData(msg []byte, off, rdlen int) (err error) {
	if rdlen < 3 {
		return ErrBadRdata
	}
	r.Preference = binary.BigEndian.Uint16(msg[off:])
	r.MX, err = unpackLastName(msg, off+2, off+rdlen)
	return err
}

// TXT is a text record; each string is at most 255 octets on the wire.
type TXT struct {
	Hdr RRHeader
	Txt []string
}

// Header implements RR.
func (r *TXT) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *TXT) String() string {
	parts := make([]string, len(r.Txt))
	for i, s := range r.Txt {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return headerString(&r.Hdr) + "\t" + strings.Join(parts, " ")
}

// Clone implements RR.
func (r *TXT) Clone() RR {
	c := *r
	c.Txt = append([]string(nil), r.Txt...)
	return &c
}

func (r *TXT) packData(b []byte, _ *compressor) ([]byte, error) {
	if len(r.Txt) == 0 {
		return append(b, 0), nil // a TXT record needs at least one string
	}
	for _, s := range r.Txt {
		if len(s) > 255 {
			return nil, fmt.Errorf("%w: TXT string exceeds 255 octets", ErrBadRdata)
		}
		b = append(b, byte(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

func (r *TXT) unpackData(msg []byte, off, rdlen int) error {
	end := off + rdlen
	r.Txt = nil
	for off < end {
		n := int(msg[off])
		off++
		if off+n > end {
			return ErrBadRdata
		}
		r.Txt = append(r.Txt, string(msg[off:off+n]))
		off += n
	}
	return nil
}

// SRV is a service-location record (RFC 2782). The target name is
// never compressed, per the RFC.
type SRV struct {
	Hdr      RRHeader
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   string
}

// Header implements RR.
func (r *SRV) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *SRV) String() string {
	return fmt.Sprintf("%s\t%d %d %d %s", headerString(&r.Hdr),
		r.Priority, r.Weight, r.Port, r.Target)
}

// Clone implements RR.
func (r *SRV) Clone() RR { c := *r; return &c }

func (r *SRV) packData(b []byte, _ *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, r.Priority)
	b = binary.BigEndian.AppendUint16(b, r.Weight)
	b = binary.BigEndian.AppendUint16(b, r.Port)
	return packName(b, r.Target, nil)
}

func (r *SRV) unpackData(msg []byte, off, rdlen int) (err error) {
	if rdlen < 7 {
		return ErrBadRdata
	}
	r.Priority = binary.BigEndian.Uint16(msg[off:])
	r.Weight = binary.BigEndian.Uint16(msg[off+2:])
	r.Port = binary.BigEndian.Uint16(msg[off+4:])
	r.Target, err = unpackLastName(msg, off+6, off+rdlen)
	return err
}

// Generic carries the rdata of any record type this package does not
// model, preserving it byte for byte (RFC 3597).
type Generic struct {
	Hdr  RRHeader
	Data []byte
}

// Header implements RR.
func (r *Generic) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *Generic) String() string {
	return fmt.Sprintf("%s\t\\# %d %x", headerString(&r.Hdr), len(r.Data), r.Data)
}

// Clone implements RR.
func (r *Generic) Clone() RR {
	c := *r
	c.Data = append([]byte(nil), r.Data...)
	return &c
}

func (r *Generic) packData(b []byte, _ *compressor) ([]byte, error) {
	return append(b, r.Data...), nil
}

func (r *Generic) unpackData(msg []byte, off, rdlen int) error {
	r.Data = append([]byte(nil), msg[off:off+rdlen]...)
	return nil
}
