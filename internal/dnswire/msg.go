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

	var c compressor
	var err error
	for _, q := range m.Questions {
		if b, err = packName(b, q.Name, &c); err != nil {
			return nil, fmt.Errorf("packing question %q: %w", q.Name, err)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	}
	for _, section := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range section {
			if b, err = packRR(b, rr, "", &c); err != nil {
				return nil, err
			}
		}
	}
	if len(b) > MaxMessageSize {
		return nil, fmt.Errorf("dnswire: packed message is %d bytes, max %d", len(b), MaxMessageSize)
	}
	return b, nil
}

// A ReplyRR is one record AppendReply writes: RR under Owner, or under
// its own name when Owner is empty. RR is only read, so it may be a
// record other replies share, such as a zone view's, with Owner the name
// a wildcard answers for.
type ReplyRR struct {
	RR    RR
	Owner string
}

// Name returns the owner the record is written under.
func (r ReplyRR) Name() string {
	if r.Owner != "" {
		return r.Owner
	}
	return r.RR.Header().Name
}

// Reply is what a reply adds to the query it answers: AA, the rcode,
// the three record sections, and the ECS option the OPT echoes.
type Reply struct {
	Authoritative bool
	Rcode         Rcode

	Answers     []ReplyRR
	Authorities []ReplyRR
	Additionals []ReplyRR

	// Echo is the ECS option of the OPT a query carrying one gets back;
	// nil writes that OPT without options.
	Echo *ECSOption
}

// AppendReply appends to b, which must be empty, the reply r to q: the
// bytes Pack gives for SetReply(q) with r's rcode and AA, the three
// sections and — when q carries an OPT, as RFC 6891 §7 requires — an
// OPT advertising DefaultEDNSSize that holds r.Echo when it is not nil,
// after the other additionals. No Message, record or OPT is built; the
// records are read where they are and written once, names compressed
// the way Pack compresses them. This is every authored reply of the
// serve path (dnsserver.WriteReply).
func AppendReply(b []byte, q *Message, r *Reply) ([]byte, error) {
	_, edns := q.OPT()
	switch {
	case len(b) != 0:
		return nil, fmt.Errorf("dnswire: AppendReply requires an empty buffer, got %d bytes", len(b))
	case r.Rcode > 0xF && !edns:
		return nil, fmt.Errorf("dnswire: rcode %s requires an OPT record", r.Rcode)
	}
	flags := uint16(flagQR) | uint16(q.Opcode&0xF)<<11 | uint16(r.Rcode&0xF)
	if r.Authoritative {
		flags |= flagAA
	}
	if q.RecursionDesired {
		flags |= flagRD
	}
	b = binary.BigEndian.AppendUint16(b, q.ID)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // the counts, each set once its section is written
	var c compressor
	var err error
	if len(q.Questions) > 0 {
		qn := q.Questions[0]
		if b, err = packName(b, qn.Name, &c); err != nil {
			return nil, fmt.Errorf("packing question %q: %w", qn.Name, err)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(qn.Type))
		b = binary.BigEndian.AppendUint16(b, uint16(qn.Class))
		b[5] = 1
	}
	for i, section := range [...][]ReplyRR{r.Answers, r.Authorities, r.Additionals} {
		for _, rr := range section {
			if b, err = packRR(b, rr.RR, rr.Owner, &c); err != nil {
				return nil, err
			}
		}
		binary.BigEndian.PutUint16(b[6+2*i:], uint16(len(section)))
	}
	if edns {
		b = append(b, 0, 0, byte(TypeOPT), DefaultEDNSSize>>8, DefaultEDNSSize&0xFF) // root, type, payload size
		b = binary.BigEndian.AppendUint32(b, uint32(r.Rcode>>4)<<24)
		rdlen := len(b)
		b = append(b, 0, 0)
		if r.Echo != nil {
			b = append(b, 0, byte(OptionCodeECS), 0, 0)
			if b, err = r.Echo.packOption(b); err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint16(b[rdlen+4:], uint16(len(b)-rdlen-6))
		}
		binary.BigEndian.PutUint16(b[rdlen:], uint16(len(b)-rdlen-2))
		binary.BigEndian.PutUint16(b[10:], uint16(len(r.Additionals)+1))
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
			rr, off, err = unpackRR(data, off, nil)
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
