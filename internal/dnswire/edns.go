package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// EDNS(0) option codes.
const (
	OptionCodeECS     uint16 = 8  // Client Subnet, RFC 7871
	OptionCodeCookie  uint16 = 10 // DNS Cookies, RFC 7873
	OptionCodePadding uint16 = 12 // Padding, RFC 7830
)

// EDNSOption is a single option inside an OPT pseudo-record.
type EDNSOption interface {
	// Code returns the option's IANA code point.
	Code() uint16
	packOption(b []byte) ([]byte, error)
	unpackOption(data []byte) error
}

// OPT is the EDNS(0) pseudo-record (RFC 6891). The header fields are
// overloaded: Name must be the root, Class carries the requestor's UDP
// payload size, and TTL carries the extended rcode, version, and DO
// bit. Use the accessor methods instead of poking the header.
type OPT struct {
	Hdr     RRHeader
	Options []EDNSOption
}

// NewOPT returns an OPT record advertising the given UDP payload size.
func NewOPT(udpSize uint16) *OPT {
	return &OPT{Hdr: RRHeader{
		Name:  ".",
		Type:  TypeOPT,
		Class: Class(udpSize),
	}}
}

// Header implements RR.
func (r *OPT) Header() *RRHeader { return &r.Hdr }

// String implements RR.
func (r *OPT) String() string {
	s := fmt.Sprintf(";; OPT: version %d, udp %d, ext-rcode %d",
		r.Version(), r.UDPSize(), r.ExtendedRcode())
	for _, o := range r.Options {
		if ecs, ok := o.(*ECSOption); ok {
			s += " " + ecs.String()
		} else {
			s += fmt.Sprintf(" option(%d)", o.Code())
		}
	}
	return s
}

// Clone implements RR.
func (r *OPT) Clone() RR {
	c := *r
	c.Options = make([]EDNSOption, len(r.Options))
	for i, o := range r.Options {
		switch o := o.(type) {
		case *ECSOption:
			oc := *o
			c.Options[i] = &oc
		case *GenericOption:
			oc := *o
			oc.Data = append([]byte(nil), o.Data...)
			c.Options[i] = &oc
		default:
			c.Options[i] = o
		}
	}
	return &c
}

// UDPSize returns the advertised UDP payload size.
func (r *OPT) UDPSize() uint16 { return uint16(r.Hdr.Class) }

// SetUDPSize sets the advertised UDP payload size.
func (r *OPT) SetUDPSize(n uint16) { r.Hdr.Class = Class(n) }

// Version returns the EDNS version (always 0 in practice).
func (r *OPT) Version() uint8 { return uint8(r.Hdr.TTL >> 16) }

// ExtendedRcode returns the upper 8 bits of the extended rcode.
func (r *OPT) ExtendedRcode() uint8 { return uint8(r.Hdr.TTL >> 24) }

// setExtendedRcode stores the upper bits of rcode in the TTL field.
func (r *OPT) setExtendedRcode(rcode Rcode) {
	r.Hdr.TTL = r.Hdr.TTL&0x00FFFFFF | uint32(rcode>>4)<<24
}

// ECS returns the client-subnet option if present.
func (r *OPT) ECS() (*ECSOption, bool) {
	for _, o := range r.Options {
		if ecs, ok := o.(*ECSOption); ok {
			return ecs, true
		}
	}
	return nil, false
}

func (r *OPT) packData(b []byte, _ *compressor) ([]byte, error) {
	for _, o := range r.Options {
		b = binary.BigEndian.AppendUint16(b, o.Code())
		lenAt := len(b)
		b = append(b, 0, 0)
		var err error
		b, err = o.packOption(b)
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-lenAt-2))
	}
	return b, nil
}

func (r *OPT) unpackData(msg []byte, off, rdlen int) error {
	end := off + rdlen
	r.Options = nil
	for off < end {
		if off+4 > end {
			return ErrBadRdata
		}
		code := binary.BigEndian.Uint16(msg[off:])
		olen := int(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		if off+olen > end {
			return ErrBadRdata
		}
		var o EDNSOption
		switch code {
		case OptionCodeECS:
			o = new(ECSOption)
		default:
			o = &GenericOption{OptCode: code}
		}
		if err := o.unpackOption(msg[off : off+olen]); err != nil {
			return err
		}
		r.Options = append(r.Options, o)
		off += olen
	}
	return nil
}

// ECSOption is the EDNS Client Subnet option (RFC 7871). In a query,
// SourcePrefix gives the number of leading address bits the client is
// willing to disclose and ScopePrefix must be zero; in a response,
// ScopePrefix is the prefix length the answer is tailored to.
type ECSOption struct {
	Family       uint16 // 1 = IPv4, 2 = IPv6
	SourcePrefix uint8
	ScopePrefix  uint8
	Address      netip.Addr
}

// NewECSOption builds a query-side ECS option for the given prefix.
func NewECSOption(prefix netip.Prefix) *ECSOption {
	fam := uint16(1)
	if prefix.Addr().Is6() && !prefix.Addr().Is4In6() {
		fam = 2
	}
	return &ECSOption{
		Family:       fam,
		SourcePrefix: uint8(prefix.Bits()),
		Address:      prefix.Masked().Addr(),
	}
}

// Code implements EDNSOption.
func (o *ECSOption) Code() uint16 { return OptionCodeECS }

// Prefix returns the option's subnet as a netip.Prefix.
func (o *ECSOption) Prefix() netip.Prefix {
	return netip.PrefixFrom(o.Address, int(o.SourcePrefix))
}

// NormalizeQuery enforces the RFC 7871 §6 query-side invariants on the
// option in place: ScopePrefix MUST be zero in queries, and address
// bits beyond SourcePrefix MUST be zero. Servers call this on ingress
// so a sloppy or hostile client cannot leak stray host bits into
// routing decisions or fragment caches keyed on the masked subnet.
func (o *ECSOption) NormalizeQuery() {
	o.ScopePrefix = 0
	o.maskAddress()
}

// maskAddress zeroes address bits beyond SourcePrefix.
func (o *ECSOption) maskAddress() {
	if !o.Address.IsValid() {
		return
	}
	bits := int(o.SourcePrefix)
	if bits >= o.Address.BitLen() {
		return
	}
	if p, err := o.Address.Prefix(bits); err == nil {
		o.Address = p.Addr()
	}
}

// String renders the option dig-style.
func (o *ECSOption) String() string {
	return fmt.Sprintf("CLIENT-SUBNET %s/%d/%d", o.Address, o.SourcePrefix, o.ScopePrefix)
}

func (o *ECSOption) packOption(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, o.Family)
	b = append(b, o.SourcePrefix, o.ScopePrefix)
	var addr []byte
	switch o.Family {
	case 1:
		if !o.Address.Is4() && !o.Address.Is4In6() {
			return nil, fmt.Errorf("%w: ECS family 1 with non-IPv4 address", ErrBadRdata)
		}
		a4 := o.Address.As4()
		addr = a4[:]
	case 2:
		a16 := o.Address.As16()
		addr = a16[:]
	default:
		return nil, fmt.Errorf("%w: ECS family %d", ErrBadRdata, o.Family)
	}
	// RFC 7871 §6: address truncated to the minimum octets covering
	// SourcePrefix bits, trailing bits zeroed.
	n := (int(o.SourcePrefix) + 7) / 8
	if n > len(addr) {
		return nil, fmt.Errorf("%w: ECS prefix %d too long for family %d", ErrBadRdata, o.SourcePrefix, o.Family)
	}
	b = append(b, addr[:n]...)
	if rem := int(o.SourcePrefix) % 8; rem != 0 {
		b[len(b)-1] &= byte(0xFF << (8 - rem))
	}
	return b, nil
}

func (o *ECSOption) unpackOption(data []byte) error {
	if len(data) < 4 {
		return ErrBadRdata
	}
	o.Family = binary.BigEndian.Uint16(data)
	o.SourcePrefix = data[2]
	o.ScopePrefix = data[3]
	addrBytes := data[4:]
	n := (int(o.SourcePrefix) + 7) / 8
	if len(addrBytes) != n {
		return fmt.Errorf("%w: ECS address has %d octets, want %d", ErrBadRdata, len(addrBytes), n)
	}
	switch o.Family {
	case 1:
		if n > 4 {
			return ErrBadRdata
		}
		var a4 [4]byte
		copy(a4[:], addrBytes)
		o.Address = netip.AddrFrom4(a4)
	case 2:
		if n > 16 {
			return ErrBadRdata
		}
		var a16 [16]byte
		copy(a16[:], addrBytes)
		o.Address = netip.AddrFrom16(a16)
	default:
		return fmt.Errorf("%w: ECS family %d", ErrBadRdata, o.Family)
	}
	// RFC 7871 §6 requires bits beyond SourcePrefix be zero on the
	// wire; a sender that set them anyway must not have them surface
	// in the decoded address, so mask here rather than trust.
	o.maskAddress()
	return nil
}

// GenericOption preserves an unrecognized EDNS option byte for byte.
type GenericOption struct {
	OptCode uint16
	Data    []byte
}

// Code implements EDNSOption.
func (o *GenericOption) Code() uint16 { return o.OptCode }

func (o *GenericOption) packOption(b []byte) ([]byte, error) {
	return append(b, o.Data...), nil
}

func (o *GenericOption) unpackOption(data []byte) error {
	o.Data = append([]byte(nil), data...)
	return nil
}
