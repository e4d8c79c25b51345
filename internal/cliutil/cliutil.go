// Package cliutil holds what the command-line tools share: parsing of
// comma-separated size vectors and field=value query terms, and the two
// observability flags of the serving commands.
package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"fxdist"
)

// Obs is the two observability flags of a serving command.
type Obs struct{ metricsAddr, logLevel *string }

// ObsFlags registers -metrics-addr (under the command's own help text)
// and -log-level on fs.
func ObsFlags(fs *flag.FlagSet, metricsHelp string) Obs {
	return Obs{
		fs.String("metrics-addr", "", metricsHelp),
		fs.String("log-level", "info", "log level: debug, info, warn, error, off"),
	}
}

// Start, called after fs.Parse, applies the log level and, when
// -metrics-addr was given, serves the observability endpoints there.
// Without it addr is empty and stop does nothing.
func (o Obs) Start() (addr string, stop func(), err error) {
	if err := fxdist.SetLogLevel(*o.logLevel); err != nil {
		return "", nil, err
	}
	if *o.metricsAddr == "" {
		return "", func() {}, nil
	}
	return fxdist.ServeMetrics(*o.metricsAddr)
}

// ParseSizes parses a comma-separated list of positive integers, e.g.
// "8,8,16".
func ParseSizes(arg string) ([]int, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, fmt.Errorf("empty size list")
	}
	parts := strings.Split(arg, ",")
	sizes := make([]int, len(parts))
	for i, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("size %q: %w", s, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("size %d must be positive", v)
		}
		sizes[i] = v
	}
	return sizes, nil
}

// ParseTerms parses query terms of the form field=value into a map.
// Repeated fields and malformed terms are errors.
func ParseTerms(args []string) (map[string]string, error) {
	spec := make(map[string]string, len(args))
	for _, arg := range args {
		k, v, ok := strings.Cut(arg, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("query term %q is not field=value", arg)
		}
		if _, dup := spec[k]; dup {
			return nil, fmt.Errorf("field %q specified twice", k)
		}
		spec[k] = v
	}
	return spec, nil
}
