// Package logging is the repo's one leveled logger. The daemons and
// load generators previously each wired bare log.Printf closures into
// every subsystem's Logf hook; this package keeps that plain
// printf-style surface (a *Logger's level methods satisfy the
// `func(format string, args ...any)` hooks everywhere) while adding the
// two things operations need: a severity floor (-log-level) and a
// uniform prefix so one daemon's interleaved subsystem output stays
// greppable.
package logging

import (
	"fmt"
	"io"
	"log"
	"strings"
)

// Level is a log severity.
type Level int32

const (
	// Debug is per-message internals: station demux events, fleet peer
	// lifecycle, batch flushes.
	Debug Level = iota
	// Info is the operational narrative: sessions, bursts, decisions,
	// provisions, periodic status.
	Info
	// Warn is degraded-but-running: decode errors, sink failures.
	Warn
	// Error is about-to-fail-or-exit.
	Error
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Debug:
		return "DEBUG"
	case Info:
		return "INFO"
	case Warn:
		return "WARN"
	case Error:
		return "ERROR"
	}
	return fmt.Sprintf("LEVEL(%d)", int32(l))
}

// ParseLevel parses "debug", "info", "warn" or "error" (case
// insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("logging: unknown level %q (want debug, info, warn or error)", s)
}

// Logger is a leveled printf logger. A nil *Logger discards everything,
// so optional Logf wiring needs no guards. Methods are safe for
// concurrent use.
type Logger struct {
	min Level
	out *log.Logger
}

// New builds a logger writing to w with the given severity floor,
// stamped with the standard date/time flags.
func New(w io.Writer, min Level) *Logger {
	return &Logger{min: min, out: log.New(w, "", log.LstdFlags)}
}

// Enabled reports whether lvl would be emitted.
func (l *Logger) Enabled(lvl Level) bool {
	return l != nil && lvl >= l.min
}

// Logf emits one line at lvl.
func (l *Logger) Logf(lvl Level, format string, args ...any) {
	if !l.Enabled(lvl) {
		return
	}
	l.out.Printf(lvl.String()+" "+format, args...)
}

// Debugf logs at Debug. Pass the method itself wherever a subsystem
// takes a `Logf func(string, ...any)` hook.
func (l *Logger) Debugf(format string, args ...any) { l.Logf(Debug, format, args...) }

// Infof logs at Info.
func (l *Logger) Infof(format string, args ...any) { l.Logf(Info, format, args...) }

// Warnf logs at Warn.
func (l *Logger) Warnf(format string, args ...any) { l.Logf(Warn, format, args...) }

// Errorf logs at Error.
func (l *Logger) Errorf(format string, args ...any) { l.Logf(Error, format, args...) }

// Fatalf logs at Error and exits with status 1.
func (l *Logger) Fatalf(format string, args ...any) {
	if l != nil && l.Enabled(Error) {
		l.out.Fatalf(Error.String()+" "+format, args...)
	}
	log.Fatalf(format, args...)
}
