//go:build linux

package dnsserver

import (
	"net/netip"
	"strconv"
	"syscall"
	"unsafe"

	"github.com/meccdn/meccdn/internal/dnswire"
)

// Batched UDP syscalls. Under the paper's DoS-threshold load the
// per-packet kernel crossing dominates the serve cost: recvmmsg and
// sendmmsg move up to a whole batch of datagrams per crossing, so the
// syscall cost amortizes across the batch instead of repeating per
// query. A socket's lead keeps a batch of pooled buffers armed,
// receives into all of them with one recvmmsg, serves the filled
// prefix inline and flushes the replies back out the same socket with
// one sendmmsg.
//
// Everything here sticks to package syscall — no x/sys dependency.
// SYS_RECVMMSG exists in the stdlib tables on every linux arch;
// sendmmsg's number is supplied per-arch by the mmsg_sendnum_*.go
// files (0 means "not wired up", degrading egress to a sendto loop).

// defaultBatch is the most datagrams one recvmmsg or sendmmsg moves.
const defaultBatch = 32

// mmsghdr mirrors the kernel's struct mmsghdr. Go's natural trailing
// padding after the uint32 matches the C layout on both 64-bit
// (4 padding bytes) and 32-bit (none) architectures.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes received/sent for this message (kernel out-param)
}

func recvmmsg(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), 0, 0, 0)
	return int(n), errno
}

func sendmmsg(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sendmmsgTrap, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), 0, 0, 0)
	return int(n), errno
}

// putSockaddr encodes addr into rsa for sending, preserving the
// address family the kernel reported it with — a v4-mapped client on a
// dual-stack socket keeps its 4-in-6 form — and returns the sockaddr
// length for Msghdr.Namelen.
func putSockaddr(rsa *syscall.RawSockaddrInet6, addr netip.AddrPort) uint32 {
	a := addr.Addr()
	port := addr.Port()
	if a.Is4() {
		rsa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		rsa4.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&rsa4.Port))
		p[0], p[1] = byte(port>>8), byte(port) // sin_port is big-endian
		rsa4.Addr = a.As4()
		return syscall.SizeofSockaddrInet4
	}
	rsa.Family = syscall.AF_INET6
	p := (*[2]byte)(unsafe.Pointer(&rsa.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	rsa.Flowinfo = 0
	rsa.Addr = a.As16()
	rsa.Scope_id = 0
	if z := a.Zone(); z != "" {
		// The ingress path stores the kernel's numeric scope id as the
		// zone (see sockaddrToAddrPort), so it round-trips without an
		// interface-name lookup.
		if id, err := strconv.ParseUint(z, 10, 32); err == nil {
			rsa.Scope_id = uint32(id)
		}
	}
	return syscall.SizeofSockaddrInet6
}

// sockaddrToAddrPort decodes a kernel-filled sockaddr. Numeric scope
// ids become the netip zone verbatim; only putSockaddr ever reads them
// back.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch rsa.Family {
	case syscall.AF_INET:
		rsa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&rsa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(rsa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&rsa.Port))
		addr := netip.AddrFrom16(rsa.Addr)
		if rsa.Scope_id != 0 {
			addr = addr.WithZone(strconv.FormatUint(uint64(rsa.Scope_id), 10))
		}
		return netip.AddrPortFrom(addr, uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

// mmsgSlots is one direction's parallel slot arrays, sized to the
// batch, allocated and wired together once per socket.
type mmsgSlots struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
}

func newMmsgSlots(n int) mmsgSlots {
	s := mmsgSlots{
		hdrs:  make([]mmsghdr, n),
		iovs:  make([]syscall.Iovec, n),
		names: make([]syscall.RawSockaddrInet6, n),
	}
	for i := range s.hdrs {
		h := &s.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		h.Iov = &s.iovs[i]
		h.Iovlen = 1
	}
	return s
}

// point aims slot i at buf[:n].
func (s *mmsgSlots) point(i int, buf []byte, n int) {
	s.iovs[i].Base = unsafe.SliceData(buf)
	s.iovs[i].SetLen(n)
}

// mmsgIO is one socket's recvmmsg and sendmmsg state, owned by the
// socket's lead: rx slot i shadows socketShard.in[i], tx slot i
// socketShard.out[i] during a flush.
type mmsgIO struct {
	rx, tx mmsgSlots
	n      int           // datagrams the last recvmmsg returned
	errno  syscall.Errno // or why it returned none
	off    int           // first unsent tx slot
	end    int
	txErrs int
	// The RawConn callbacks, bound once: a per-call method value allocates.
	readFn, writeFn func(uintptr) bool
}

func newMmsgIO(batch int) *mmsgIO {
	m := &mmsgIO{rx: newMmsgSlots(batch), tx: newMmsgSlots(batch)}
	m.readFn, m.writeFn = m.read, m.write
	return m
}

// read is the syscall.RawConn.Read callback: one recvmmsg attempt.
// Returning false parks the goroutine on the runtime poller until the
// socket is readable again (or the read deadline fires).
func (m *mmsgIO) read(fd uintptr) bool {
	for {
		n, errno := recvmmsg(fd, m.rx.hdrs)
		switch errno {
		case 0:
			m.n = n
			return true
		case syscall.EINTR:
			// retry immediately; the socket may already hold packets
		case syscall.EAGAIN:
			return false
		default:
			m.errno = errno
			return true
		}
	}
}

// recv fills sh.in[:sh.n] with up to a batch of datagrams from one
// recvmmsg, each landing directly in its slot's pooled buffer. Slots
// whose buffer left with a query that gave the socket away are re-armed
// first, and the kernel's out-params (Namelen, Flags) reset, because
// recvmmsg overwrites them per message. With block it waits for the
// socket to become readable; without, it takes what the socket holds
// now — the drain's last sweep, after the read deadline has passed and
// RawConn.Read would refuse to run.
func (sh *socketShard) recv(block bool) error {
	m := sh.mio
	for i := range sh.in {
		if sh.in[i].buf == nil {
			sh.in[i].buf = dnswire.GetBuffer()
			m.rx.point(i, sh.in[i].buf, len(sh.in[i].buf))
		}
		m.rx.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		m.rx.hdrs[i].hdr.Flags = 0
	}
	sh.n, sh.next, m.n, m.errno = 0, 0, 0, 0
	var err error
	if block {
		err = sh.rc.Read(m.readFn)
	} else {
		err = sh.rc.Control(func(fd uintptr) { m.read(fd) })
	}
	if err == nil && m.errno != 0 {
		err = m.errno
	}
	if err != nil {
		return err
	}
	for i := 0; i < m.n; i++ {
		sh.in[i].n = int(m.rx.hdrs[i].n)
		sh.in[i].addr = sockaddrToAddrPort(&m.rx.names[i])
	}
	sh.n = m.n
	return nil
}

// write is the syscall.RawConn.Write callback: sendmmsg until the whole
// [off, end) window is out. A datagram the kernel refuses outright is
// skipped and counted so one bad destination can't wedge the batch;
// UDP clients retry.
func (m *mmsgIO) write(fd uintptr) bool {
	for m.off < m.end {
		n, errno := sendmmsg(fd, m.tx.hdrs[m.off:m.end])
		switch errno {
		case 0:
			m.off += n
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			return false
		default:
			m.txErrs++
			m.off++
		}
	}
	return true
}

// sendBatch flushes the stashed replies (never more than a batch: at
// most one per ingress slot) with sendmmsg, falling back to the
// per-packet loop on architectures without a wired syscall number.
func (sh *socketShard) sendBatch() {
	if sendmmsgTrap == 0 {
		sh.sendLoop()
		return
	}
	m := sh.mio
	for i, p := range sh.out {
		m.tx.point(i, p.buf, p.n)
		m.tx.hdrs[i].hdr.Namelen = putSockaddr(&m.tx.names[i], p.addr)
		m.tx.hdrs[i].hdr.Flags = 0
		m.tx.hdrs[i].n = 0
	}
	m.off, m.end, m.txErrs = 0, len(sh.out), 0
	if err := sh.rc.Write(m.writeFn); err != nil {
		m.txErrs += m.end - m.off // deadline/close mid-flush: remainder unsent
	}
	if m.txErrs > 0 {
		sh.ctr.sendErrs.Add(sh.id, uint64(m.txErrs))
	}
	for _, p := range sh.out {
		dnswire.PutBuffer(p.buf)
	}
}
