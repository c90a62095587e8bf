// Package netaddr provides a compact IPv4 prefix type used throughout the
// SWIFT reproduction. Prefixes are the unit of BGP routing state: every
// RIB entry, withdrawal, tag and forwarding rule is keyed by one.
//
// The type is a single uint64 (address in the high 32 bits, prefix length
// in the low bits), so it is comparable, hashable, and free to copy —
// important because the inference and encoding layers keep multi-million
// entry maps keyed by prefix.
package netaddr

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR prefix packed into a uint64: the network address
// occupies bits 8..39 and the prefix length bits 0..7. The zero value is
// the invalid prefix and is never a routable destination.
type Prefix uint64

// Invalid is the zero Prefix. It is returned by parsing failures and used
// as a sentinel by callers.
const Invalid Prefix = 0

var errBadPrefix = errors.New("netaddr: malformed prefix")

// MakePrefix builds a Prefix from a 32-bit address and a length in [0,32].
// The address is masked to its network bits so that two spellings of the
// same network compare equal.
func MakePrefix(addr uint32, length int) Prefix {
	if length < 0 || length > 32 {
		return Invalid
	}
	return Prefix(uint64(addr&Mask(length))<<8 | uint64(length))
}

// Mask returns the network mask for a prefix length in [0,32].
func Mask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - uint(length))
}

// Addr returns the 32-bit network address.
func (p Prefix) Addr() uint32 { return uint32(p >> 8) }

// Len returns the prefix length in bits.
func (p Prefix) Len() int { return int(p & 0xff) }

// IsValid reports whether p is a well-formed, non-zero prefix.
func (p Prefix) IsValid() bool {
	return p != Invalid && p.Len() <= 32 && p.Addr()&^Mask(p.Len()) == 0
}

// Contains reports whether addr falls inside p.
func (p Prefix) Contains(addr uint32) bool {
	return addr&Mask(p.Len()) == p.Addr()
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Len() <= q.Len() {
		return p.Contains(q.Addr())
	}
	return q.Contains(p.Addr())
}

// String renders the prefix in dotted-quad CIDR notation.
func (p Prefix) String() string {
	var buf [20]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends the prefix in the notation String renders to b and
// returns the extended slice, so callers formatting many prefixes can
// reuse one buffer.
func (p Prefix) AppendTo(b []byte) []byte {
	a := p.Addr()
	b = strconv.AppendUint(b, uint64(byte(a>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>8)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a)), 10)
	b = append(b, '/')
	return strconv.AppendInt(b, int64(p.Len()), 10)
}

// ParsePrefix parses dotted-quad CIDR notation ("10.0.0.0/8").
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Invalid, errBadPrefix
	}
	length, err := strconv.Atoi(s[slash+1:])
	if err != nil || length < 0 || length > 32 {
		return Invalid, errBadPrefix
	}
	var addr uint32
	rest := s[:slash]
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return Invalid, errBadPrefix
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 || v > 255 {
			return Invalid, errBadPrefix
		}
		addr = addr<<8 | uint32(v)
	}
	p := MakePrefix(addr, length)
	if p.Addr() != addr {
		return Invalid, fmt.Errorf("netaddr: %q has host bits set", s)
	}
	return p, nil
}

// MustParsePrefix is ParsePrefix for constants in tests and examples; it
// panics on malformed input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Sort orders prefixes by address then by length, in place. The order is
// deterministic, which keeps trace generation and tests reproducible,
// and the sort allocates nothing.
func Sort(ps []Prefix) { slices.Sort(ps) }

// DedupSorted compacts equal neighbors of a sorted slice in place and
// returns the shortened slice — the allocation-free union finisher the
// reroute-path set materializations use (append, Sort, DedupSorted).
func DedupSorted(ps []Prefix) []Prefix {
	if len(ps) < 2 {
		return ps
	}
	w := 1
	for i := 1; i < len(ps); i++ {
		if ps[i] != ps[w-1] {
			ps[w] = ps[i]
			w++
		}
	}
	return ps[:w]
}

// BlockFor deterministically derives the i-th /24 prefix belonging to an
// origin AS. Every synthetic workload in this repository draws its
// address space through this function so that a (origin, index) pair
// always maps to the same prefix, letting independent components (trace
// generator, simulator, evaluator) agree without sharing state.
//
// The /24 network number is simply origin*256+i, so origins below 2^16
// get 256 collision-free prefixes each.
func BlockFor(origin uint32, i int) Prefix {
	if i < 0 || i > 0xff || origin > 0xffff {
		return Invalid
	}
	return MakePrefix((origin<<8|uint32(i))<<8, 24)
}

// PrefixFor deterministically derives the i-th host route (/32)
// originated by an origin AS. It complements BlockFor for workloads that
// need more than 256 prefixes per origin — the paper's case study
// advertises 290k prefixes from a single AS. Unique for origins below
// 2^12 and indices below 2^20.
func PrefixFor(origin uint32, i int) Prefix {
	if i < 0 || i >= 1<<20 || origin >= 1<<12 {
		return Invalid
	}
	return MakePrefix(origin<<20|uint32(i), 32)
}

// PrefixOrigin inverts PrefixFor.
func PrefixOrigin(p Prefix) (origin uint32, index int, ok bool) {
	if !p.IsValid() || p.Len() != 32 {
		return 0, 0, false
	}
	return p.Addr() >> 20, int(p.Addr() & (1<<20 - 1)), true
}
