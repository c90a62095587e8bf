package logging

import (
	"strings"
	"testing"
)

func TestLevelFiltering(t *testing.T) {
	var buf strings.Builder
	l := New(&buf, Warn)
	l.Debugf("d %d", 1)
	l.Infof("i %d", 2)
	l.Warnf("w %d", 3)
	l.Errorf("e %d", 4)
	out := buf.String()
	if strings.Contains(out, "d 1") || strings.Contains(out, "i 2") {
		t.Errorf("below-threshold lines leaked:\n%s", out)
	}
	if !strings.Contains(out, "WARN w 3") || !strings.Contains(out, "ERROR e 4") {
		t.Errorf("expected lines missing:\n%s", out)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": Debug, "info": Info, "warn": Warn, "error": Error,
		"WARN": Warn, "Info": Info,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestNilLoggerDiscards(t *testing.T) {
	var l *Logger
	l.Debugf("x")
	l.Infof("x")
	l.Warnf("x")
	l.Errorf("x")
	if l.Enabled(Error) {
		t.Error("nil logger claims Enabled")
	}
}
