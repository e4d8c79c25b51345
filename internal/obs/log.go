package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	// LevelOff disables all output.
	LevelOff
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	case LevelOff:
		return "OFF"
	}
	return "UNKNOWN"
}

// ParseLevel maps "debug", "info", "warn", "error" or "off" to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off":
		return LevelOff, nil
	}
	return LevelOff, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, error or off)", s)
}

// Logger is a minimal leveled logger. The default logger filters at
// LevelWarn, so routine recovery/compaction events (logged at Info) are
// quiet in tests; CLIs opt into Info or Debug.
type Logger struct {
	level atomic.Int32

	mu  sync.Mutex
	out io.Writer
}

// NewLogger builds a logger writing records at or above level to out.
func NewLogger(level Level, out io.Writer) *Logger {
	l := &Logger{out: out}
	l.level.Store(int32(level))
	return l
}

var std = NewLogger(LevelWarn, os.Stderr)

// StdLogger returns the process-wide logger.
func StdLogger() *Logger { return std }

// SetLevel changes the logger's threshold.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// Level returns the current threshold.
func (l *Logger) Level() Level { return Level(l.level.Load()) }

// Logf writes one record when level passes the threshold.
func (l *Logger) Logf(level Level, format string, args ...any) {
	if level < Level(l.level.Load()) || Level(l.level.Load()) == LevelOff {
		return
	}
	ts := time.Now().UTC().Format("2006-01-02T15:04:05.000Z")
	line := fmt.Sprintf("%s %-5s %s\n", ts, level, fmt.Sprintf(format, args...))
	l.mu.Lock()
	io.WriteString(l.out, line) //nolint:errcheck // best-effort logging
	l.mu.Unlock()
}

// Debugf logs at LevelDebug.
func (l *Logger) Debugf(format string, args ...any) { l.Logf(LevelDebug, format, args...) }

// Infof logs at LevelInfo.
func (l *Logger) Infof(format string, args ...any) { l.Logf(LevelInfo, format, args...) }

// Warnf logs at LevelWarn.
func (l *Logger) Warnf(format string, args ...any) { l.Logf(LevelWarn, format, args...) }

// Errorf logs at LevelError.
func (l *Logger) Errorf(format string, args ...any) { l.Logf(LevelError, format, args...) }

// Package-level shorthands on the process logger.

// SetLogLevel changes the process logger's threshold.
func SetLogLevel(level Level) { std.SetLevel(level) }

// Debugf logs at LevelDebug on the process logger.
func Debugf(format string, args ...any) { std.Debugf(format, args...) }

// Infof logs at LevelInfo on the process logger.
func Infof(format string, args ...any) { std.Infof(format, args...) }

// Warnf logs at LevelWarn on the process logger.
func Warnf(format string, args ...any) { std.Warnf(format, args...) }

// Errorf logs at LevelError on the process logger.
func Errorf(format string, args ...any) { std.Errorf(format, args...) }
