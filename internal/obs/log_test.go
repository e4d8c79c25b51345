package obs

import (
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerLevelFiltering(t *testing.T) {
	var sb strings.Builder
	level := newLevelVar(slog.LevelWarn)
	lg := newLogger(&sb, level)
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w", "n", 1)
	lg.Error("e")
	out := sb.String()
	if strings.Contains(out, "DEBUG") || strings.Contains(out, "INFO") {
		t.Errorf("below-threshold records written:\n%s", out)
	}
	if !strings.Contains(out, "level=WARN msg=w n=1") || !strings.Contains(out, "level=ERROR msg=e") {
		t.Errorf("missing records:\n%s", out)
	}

	level.Set(LevelOff)
	sb.Reset()
	lg.Error("silent")
	if sb.Len() != 0 {
		t.Errorf("LevelOff wrote %q", sb.String())
	}

	level.Set(slog.LevelDebug)
	sb.Reset()
	lg.Debug("loud")
	if !strings.Contains(sb.String(), "level=DEBUG msg=loud") {
		t.Errorf("debug record missing: %q", sb.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"error": slog.LevelError, "off": LevelOff,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

// The default process logger must stay quiet below Warn so routine
// recovery/compaction events do not spam test output.
func TestDefaultLoggerQuiet(t *testing.T) {
	if logLevel.Level() != slog.LevelWarn {
		t.Errorf("default level = %v, want warn", logLevel.Level())
	}
}
