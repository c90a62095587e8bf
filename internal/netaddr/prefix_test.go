package netaddr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in   string
		addr uint32
		len  int
	}{
		{"10.0.0.0/8", 0x0a000000, 8},
		{"192.168.1.0/24", 0xc0a80100, 24},
		{"0.0.0.0/0", 0, 0},
		{"255.255.255.255/32", 0xffffffff, 32},
		{"172.16.0.0/12", 0xac100000, 12},
	}
	for _, c := range cases {
		p, err := ParsePrefix(c.in)
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", c.in, err)
		}
		if p.Addr() != c.addr || p.Len() != c.len {
			t.Errorf("ParsePrefix(%q) = %08x/%d, want %08x/%d", c.in, p.Addr(), p.Len(), c.addr, c.len)
		}
		if got := p.String(); got != c.in {
			t.Errorf("String() round trip = %q, want %q", got, c.in)
		}
	}
}

func TestParsePrefixErrors(t *testing.T) {
	bad := []string{
		"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0/8",
		"10.0.0.0.0/8", "256.0.0.0/8", "10.0.0.1/24", // host bits set
		"a.b.c.d/8", "10.0.0.0/x",
	}
	for _, s := range bad {
		if p, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) = %v, want error", s, p)
		}
	}
}

func TestMask(t *testing.T) {
	for _, c := range []struct {
		len  int
		want uint32
	}{{0, 0}, {8, 0xff000000}, {16, 0xffff0000}, {24, 0xffffff00}, {32, 0xffffffff}, {1, 0x80000000}, {31, 0xfffffffe}} {
		if got := Mask(c.len); got != c.want {
			t.Errorf("Mask(%d) = %08x, want %08x", c.len, got, c.want)
		}
	}
}

func TestContainsOverlaps(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(0x0a010203) {
		t.Error("10.1.0.0/16 should contain 10.1.2.3")
	}
	if p.Contains(0x0a020203) {
		t.Error("10.1.0.0/16 should not contain 10.2.2.3")
	}
	q := MustParsePrefix("10.1.2.0/24")
	if !p.Overlaps(q) || !q.Overlaps(p) {
		t.Error("nested prefixes must overlap symmetrically")
	}
	r := MustParsePrefix("10.2.0.0/16")
	if p.Overlaps(r) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestMakePrefixMasksHostBits(t *testing.T) {
	p := MakePrefix(0x0a0102ff, 24)
	if p.Addr() != 0x0a010200 {
		t.Errorf("MakePrefix did not mask host bits: %08x", p.Addr())
	}
	if !p.IsValid() {
		t.Error("masked prefix should be valid")
	}
}

func TestInvalidPrefix(t *testing.T) {
	if Invalid.IsValid() {
		t.Error("zero prefix must be invalid")
	}
	if MakePrefix(0, 33).IsValid() {
		t.Error("length 33 must be invalid")
	}
}

func TestBlockForRoundTrip(t *testing.T) {
	f := func(origin uint16, idx uint8) bool {
		p := BlockFor(uint32(origin), int(idx))
		if !p.IsValid() && origin != 0 {
			// origin 0, idx 0 packs to network 0 which is the Invalid
			// sentinel; all other combinations must be valid.
			return origin == 0 && idx == 0
		}
		n := p.Addr() >> 8
		return p.Len() == 24 && n>>8 == uint32(origin) && n&0xff == uint32(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockForUnique(t *testing.T) {
	seen := make(map[Prefix]bool)
	for origin := uint32(1); origin < 200; origin++ {
		for i := 0; i < 30; i++ {
			p := BlockFor(origin, i)
			if seen[p] {
				t.Fatalf("duplicate prefix %v for origin %d index %d", p, origin, i)
			}
			seen[p] = true
		}
	}
}

func TestPrefixComparable(t *testing.T) {
	// Prefix must be usable as a map key with value semantics.
	m := map[Prefix]int{MustParsePrefix("10.0.0.0/8"): 1}
	if m[MakePrefix(0x0a000000, 8)] != 1 {
		t.Error("equivalent prefixes must be equal map keys")
	}
}

func TestSortDeterministic(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.2.0.0/16"),
		MustParsePrefix("10.1.0.0/16"),
		MustParsePrefix("10.1.0.0/24"),
	}
	Sort(ps)
	if ps[0].String() != "10.1.0.0/16" || ps[1].String() != "10.1.0.0/24" || ps[2].String() != "10.2.0.0/16" {
		t.Errorf("unexpected order: %v", ps)
	}
}

func TestPrefixPropertyContainsSelf(t *testing.T) {
	f := func(addr uint32, l uint8) bool {
		length := int(l % 33)
		p := MakePrefix(addr, length)
		return p.Contains(p.Addr())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStringMatchesSprintf pins String and AppendTo to the fmt form the
// prefix was first rendered with, on random prefixes and on packed
// values no constructor makes (the invalid zero, lengths past 32), and
// String to its single allocation.
func TestStringMatchesSprintf(t *testing.T) {
	ref := func(p Prefix) string {
		a := p.Addr()
		return fmt.Sprintf("%d.%d.%d.%d/%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a), p.Len())
	}
	ps := []Prefix{Invalid, MakePrefix(0, 0), MakePrefix(^uint32(0), 32), Prefix(^uint64(0)), Prefix(0xc0a80100<<8 | 200)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ps = append(ps, MakePrefix(rng.Uint32(), rng.Intn(33)))
	}
	buf := []byte("x")
	for _, p := range ps {
		want := ref(p)
		if got := p.String(); got != want {
			t.Fatalf("String(%#x) = %q, want %q", uint64(p), got, want)
		}
		if got := string(p.AppendTo(buf)); got != "x"+want {
			t.Fatalf("AppendTo(%#x) = %q, want %q", uint64(p), got, "x"+want)
		}
	}
	p := MakePrefix(0xc0a80100, 24)
	if allocs := testing.AllocsPerRun(10, func() { _ = p.String() }); allocs > 1 {
		t.Fatalf("String made %.0f allocations, want 1", allocs)
	}
}
