package encoding

import (
	"fmt"
	"sort"

	"swift/internal/topology"
)

// Warm-restart image for a compiled scheme. The dictionaries and the
// tag assignment are serialized verbatim (canonically ordered); the
// bit layout is a pure function of the dictionary sizes and the config,
// so RestoreScheme recomputes it with layout() instead of shipping bit
// positions over the wire.

// LinkValue is one per-depth dictionary entry.
type LinkValue struct {
	Link  topology.Link
	Value uint64
}

// NHValue is one next-hop dictionary entry.
type NHValue struct {
	AS    uint32
	Value uint64
}

// SchemeImage is a compiled scheme in canonical order: per-depth link
// dictionaries ascending by value, next-hops ascending by value, tags
// ascending by prefix.
type SchemeImage struct {
	Cfg       Config
	LocalAS   uint32
	LinkDicts [][]LinkValue
	NHs       []NHValue
	Tags      []TagAssignment
}

// Export captures the scheme. Tags is the scheme's own slice, not a
// copy: a compiled scheme is immutable, so the image may share it.
func (s *Scheme) Export() SchemeImage {
	img := SchemeImage{
		Cfg:       s.cfg,
		LocalAS:   s.localAS,
		LinkDicts: make([][]LinkValue, len(s.linkIDs)),
		NHs:       make([]NHValue, 0, len(s.nhIDs)),
		Tags:      s.tags,
	}
	for i, dict := range s.linkIDs {
		d := make([]LinkValue, 0, len(dict))
		for l, v := range dict {
			d = append(d, LinkValue{Link: l, Value: v})
		}
		sort.Slice(d, func(a, b int) bool { return d[a].Value < d[b].Value })
		img.LinkDicts[i] = d
	}
	for as, v := range s.nhIDs {
		img.NHs = append(img.NHs, NHValue{AS: as, Value: v})
	}
	sort.Slice(img.NHs, func(a, b int) bool { return img.NHs[a].Value < img.NHs[b].Value })
	return img
}

// RestoreScheme compiles a scheme from an image: dictionaries load
// verbatim, the tag slice is adopted as is (the scheme takes ownership
// of img.Tags), the field layout is recomputed from the dictionary
// sizes — the same pure function Build uses, so a restored scheme emits
// bit-identical rules and tags.
func RestoreScheme(img SchemeImage) (*Scheme, error) {
	cfg := img.Cfg
	if cfg.TagBits <= 0 || cfg.TagBits > 64 {
		return nil, fmt.Errorf("encoding: restore: tag width %d out of range", cfg.TagBits)
	}
	if cfg.MaxDepth < 2 {
		return nil, fmt.Errorf("encoding: restore: MaxDepth %d too small", cfg.MaxDepth)
	}
	if len(img.LinkDicts) != cfg.MaxDepth-1 {
		return nil, fmt.Errorf("encoding: restore: %d link dictionaries for MaxDepth %d",
			len(img.LinkDicts), cfg.MaxDepth)
	}
	nhGroups := 1 + (cfg.MaxDepth - 1)
	if cfg.NHBits*nhGroups > cfg.TagBits-cfg.PathBits {
		return nil, fmt.Errorf("encoding: restore: next-hop groups exceed available bits")
	}
	s := &Scheme{
		cfg:     cfg,
		localAS: img.LocalAS,
		nhIDs:   make(map[uint32]uint64, len(img.NHs)),
		nhASes:  make(map[uint64]uint32, len(img.NHs)),
		tags:    img.Tags,
		linkIDs: make([]map[topology.Link]uint64, len(img.LinkDicts)),
	}
	for i, dict := range img.LinkDicts {
		m := make(map[topology.Link]uint64, len(dict))
		for _, lv := range dict {
			// Values are dense 1..len by construction; a value outside
			// that range would overflow the recomputed group width.
			if lv.Value == 0 || lv.Value > uint64(len(dict)) {
				return nil, fmt.Errorf("encoding: restore: depth-%d dictionary value %d out of range [1,%d]",
					i+2, lv.Value, len(dict))
			}
			if _, dup := m[lv.Link]; dup {
				return nil, fmt.Errorf("encoding: restore: duplicate link %v at depth %d", lv.Link, i+2)
			}
			m[lv.Link] = lv.Value
		}
		s.linkIDs[i] = m
	}
	pathBits := 0
	for _, m := range s.linkIDs {
		pathBits += widthFor(len(m))
	}
	if pathBits > cfg.PathBits {
		return nil, fmt.Errorf("encoding: restore: dictionaries need %d path bits, budget %d",
			pathBits, cfg.PathBits)
	}
	maxNH := uint64(1)<<cfg.NHBits - 1
	for _, nv := range img.NHs {
		if nv.Value == 0 || nv.Value > maxNH {
			return nil, fmt.Errorf("encoding: restore: next-hop value %d out of range [1,%d]", nv.Value, maxNH)
		}
		if _, dup := s.nhASes[nv.Value]; dup {
			return nil, fmt.Errorf("encoding: restore: duplicate next-hop value %d", nv.Value)
		}
		if _, dup := s.nhIDs[nv.AS]; dup {
			return nil, fmt.Errorf("encoding: restore: duplicate next-hop AS %d", nv.AS)
		}
		s.nhIDs[nv.AS] = nv.Value
		s.nhASes[nv.Value] = nv.AS
	}
	s.layout()
	if err := CheckTags(img.Tags); err != nil {
		return nil, fmt.Errorf("encoding: restore: %w", err)
	}
	return s, nil
}
