package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
)

// LevelOff sits above every level the code logs at, so nothing passes.
const LevelOff = slog.LevelError + 4

// ParseLevel maps "debug", "info", "warn", "error" or "off" to a level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off":
		return LevelOff, nil
	}
	return LevelOff, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, error or off)", s)
}

// logLevel is the process logger's threshold. It starts at Warn, so
// routine recovery/compaction events (logged at Info) are quiet in
// tests; CLIs opt into Info or Debug.
var logLevel = newLevelVar(slog.LevelWarn)

var logger = newLogger(os.Stderr, logLevel)

func newLevelVar(l slog.Level) *slog.LevelVar {
	v := new(slog.LevelVar)
	v.Set(l)
	return v
}

func newLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// Logger returns the process-wide logger: text records on stderr.
func Logger() *slog.Logger { return logger }

// SetLogLevel changes the process logger's threshold.
func SetLogLevel(level slog.Level) { logLevel.Set(level) }
