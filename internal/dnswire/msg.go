package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Errors returned by message packing and unpacking.
var (
	ErrShortMessage    = errors.New("dnswire: message shorter than header")
	ErrTrailingGarbage = errors.New("dnswire: trailing bytes after message")
	ErrTooManyRecords  = errors.New("dnswire: section count exceeds limit")
)

// maxSectionRecords bounds each section during unpacking so a hostile
// header cannot force huge allocations.
const maxSectionRecords = 4096

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question dig-style.
func (q Question) String() string {
	return fmt.Sprintf("%s\t%s\t%s", q.Name, q.Class, q.Type)
}

// Message is a complete DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	AuthenticatedData  bool
	CheckingDisabled   bool
	Rcode              Rcode

	Questions   []Question
	Answers     []RR
	Authorities []RR
	Additionals []RR
}

// SetQuestion resets m to a recursion-desired query for (name, t) and
// returns m for chaining.
func (m *Message) SetQuestion(name string, t Type) *Message {
	*m = Message{
		ID:               m.ID,
		RecursionDesired: true,
		Questions:        []Question{{Name: CanonicalName(name), Type: t, Class: ClassINET}},
	}
	return m
}

// SetReply resets m to a success response mirroring req's ID, opcode,
// question, and RD flag, and returns m for chaining.
func (m *Message) SetReply(req *Message) *Message {
	*m = Message{
		ID:               req.ID,
		Response:         true,
		Opcode:           req.Opcode,
		RecursionDesired: req.RecursionDesired,
	}
	if len(req.Questions) > 0 {
		m.Questions = []Question{req.Questions[0]}
	}
	return m
}

// SetRcode is SetReply followed by setting the response code.
func (m *Message) SetRcode(req *Message, rcode Rcode) *Message {
	m.SetReply(req)
	m.Rcode = rcode
	return m
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// OPT returns the OPT pseudo-record from the additional section.
func (m *Message) OPT() (*OPT, bool) {
	for _, rr := range m.Additionals {
		if opt, ok := rr.(*OPT); ok {
			return opt, true
		}
	}
	return nil, false
}

// SetEDNS attaches (or replaces) an OPT record advertising udpSize,
// returning the record so options can be added.
func (m *Message) SetEDNS(udpSize uint16) *OPT {
	if opt, ok := m.OPT(); ok {
		opt.SetUDPSize(udpSize)
		return opt
	}
	opt := NewOPT(udpSize)
	m.Additionals = append(m.Additionals, opt)
	return opt
}

// ECS returns the client-subnet option if the message carries one.
func (m *Message) ECS() (*ECSOption, bool) {
	if opt, ok := m.OPT(); ok {
		return opt.ECS()
	}
	return nil, false
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	c := *m
	c.Questions = append([]Question(nil), m.Questions...)
	cloneRRs := func(in []RR) []RR {
		if in == nil {
			return nil
		}
		out := make([]RR, len(in))
		for i, rr := range in {
			out[i] = rr.Clone()
		}
		return out
	}
	c.Answers = cloneRRs(m.Answers)
	c.Authorities = cloneRRs(m.Authorities)
	c.Additionals = cloneRRs(m.Additionals)
	return &c
}

// flag bit positions within the 16-bit flags word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
	flagAD = 1 << 5
	flagCD = 1 << 4
)

// Pack serializes m into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 128))
}

// AppendPack serializes m, appending to b (which must be empty or
// freshly positioned at a message boundary: compression offsets are
// relative to the start of b's unused capacity region only when b is
// empty, so callers reusing buffers should pass b[:0]).
func (m *Message) AppendPack(b []byte) ([]byte, error) {
	if len(b) != 0 {
		return nil, fmt.Errorf("dnswire: AppendPack requires an empty buffer, got %d bytes", len(b))
	}
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= flagAA
	}
	if m.Truncated {
		flags |= flagTC
	}
	if m.RecursionDesired {
		flags |= flagRD
	}
	if m.RecursionAvailable {
		flags |= flagRA
	}
	if m.AuthenticatedData {
		flags |= flagAD
	}
	if m.CheckingDisabled {
		flags |= flagCD
	}
	flags |= uint16(m.Rcode & 0xF)

	if m.Rcode > 0xF {
		opt, ok := m.OPT()
		if !ok {
			return nil, fmt.Errorf("dnswire: rcode %s requires an OPT record", m.Rcode)
		}
		opt.setExtendedRcode(m.Rcode)
	}

	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Authorities)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Additionals)))

	c := new(compressor)
	var err error
	for _, q := range m.Questions {
		if b, err = packName(b, q.Name, c); err != nil {
			return nil, fmt.Errorf("packing question %q: %w", q.Name, err)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	}
	for _, section := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range section {
			if b, err = packRR(b, rr, c); err != nil {
				return nil, err
			}
		}
	}
	if len(b) > MaxMessageSize {
		return nil, fmt.Errorf("dnswire: packed message is %d bytes, max %d", len(b), MaxMessageSize)
	}
	return b, nil
}

// Unpack parses wire-format data into m, replacing its contents.
func (m *Message) Unpack(data []byte) error {
	if len(data) < 12 {
		return ErrShortMessage
	}
	if len(data) > MaxMessageSize {
		return fmt.Errorf("dnswire: message is %d bytes, max %d", len(data), MaxMessageSize)
	}
	flags := binary.BigEndian.Uint16(data[2:])
	*m = Message{
		ID:                 binary.BigEndian.Uint16(data),
		Response:           flags&flagQR != 0,
		Opcode:             Opcode(flags >> 11 & 0xF),
		Authoritative:      flags&flagAA != 0,
		Truncated:          flags&flagTC != 0,
		RecursionDesired:   flags&flagRD != 0,
		RecursionAvailable: flags&flagRA != 0,
		AuthenticatedData:  flags&flagAD != 0,
		CheckingDisabled:   flags&flagCD != 0,
		Rcode:              Rcode(flags & 0xF),
	}
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))
	if qd > maxSectionRecords || an > maxSectionRecords || ns > maxSectionRecords || ar > maxSectionRecords {
		return ErrTooManyRecords
	}
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = unpackName(data, off); err != nil {
			return fmt.Errorf("unpacking question %d: %w", i, err)
		}
		if off+4 > len(data) {
			return ErrBufferTooSmall
		}
		q.Type = Type(binary.BigEndian.Uint16(data[off:]))
		q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	unpackSection := func(n int, name string) ([]RR, error) {
		var rrs []RR
		for i := 0; i < n; i++ {
			var rr RR
			rr, off, err = unpackRR(data, off)
			if err != nil {
				return nil, fmt.Errorf("unpacking %s record %d: %w", name, i, err)
			}
			rrs = append(rrs, rr)
		}
		return rrs, nil
	}
	if m.Answers, err = unpackSection(an, "answer"); err != nil {
		return err
	}
	if m.Authorities, err = unpackSection(ns, "authority"); err != nil {
		return err
	}
	if m.Additionals, err = unpackSection(ar, "additional"); err != nil {
		return err
	}
	if off != len(data) {
		return ErrTrailingGarbage
	}
	if opt, ok := m.OPT(); ok {
		m.Rcode |= Rcode(opt.ExtendedRcode()) << 4
	}
	return nil
}

// TruncateTo shrinks the answer/authority/additional sections (keeping
// any OPT record) until the packed size fits within size bytes, setting
// the TC bit if anything was dropped. It reports whether truncation
// occurred.
func (m *Message) TruncateTo(size int) bool {
	packedLen := func() int {
		b, err := m.Pack()
		if err != nil {
			return MaxMessageSize + 1
		}
		return len(b)
	}
	if packedLen() <= size {
		return false
	}
	m.Truncated = true
	// Drop non-OPT additionals first, then authorities, then answers.
	var keep []RR
	for _, rr := range m.Additionals {
		if rr.Header().Type == TypeOPT {
			keep = append(keep, rr)
		}
	}
	m.Additionals = keep
	for packedLen() > size && len(m.Authorities) > 0 {
		m.Authorities = m.Authorities[:len(m.Authorities)-1]
	}
	for packedLen() > size && len(m.Answers) > 0 {
		m.Answers = m.Answers[:len(m.Answers)-1]
	}
	return true
}

// String renders the message in a dig-like multi-section format.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; opcode: %s, status: %s, id: %d\n", m.Opcode, m.Rcode, m.ID)
	fmt.Fprintf(&b, ";; flags:")
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Response, "qr"}, {m.Authoritative, "aa"}, {m.Truncated, "tc"},
		{m.RecursionDesired, "rd"}, {m.RecursionAvailable, "ra"},
		{m.AuthenticatedData, "ad"}, {m.CheckingDisabled, "cd"},
	} {
		if f.on {
			b.WriteString(" " + f.name)
		}
	}
	fmt.Fprintf(&b, "; QUERY: %d, ANSWER: %d, AUTHORITY: %d, ADDITIONAL: %d\n",
		len(m.Questions), len(m.Answers), len(m.Authorities), len(m.Additionals))
	if len(m.Questions) > 0 {
		b.WriteString("\n;; QUESTION SECTION:\n")
		for _, q := range m.Questions {
			fmt.Fprintf(&b, ";%s\n", q)
		}
	}
	sections := []struct {
		name string
		rrs  []RR
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authorities}, {"ADDITIONAL", m.Additionals}}
	for _, s := range sections {
		if len(s.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n;; %s SECTION:\n", s.name)
		for _, rr := range s.rrs {
			b.WriteString(rr.String() + "\n")
		}
	}
	return b.String()
}
