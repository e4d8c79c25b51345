// Command fxpaper reproduces the paper offline: every table, figure and
// cost comparison of the evaluation, the planning advice built on them,
// and the durable demo store. One subcommand per job:
//
//	fxpaper tables  [-table N]                       # Tables 1-6, the worked examples
//	fxpaper bench   [-table N] [-cpu] [-format F]    # Tables 7-9 and the §5.2.2 CPU cost comparison
//	fxpaper figures [-figure N] [-exact] [-format F] # Figures 1-4
//	fxpaper exp     [-out DIR] [-quick]              # all of the above as CSV/JSON files plus SUMMARY.md
//	fxpaper plan    -fields 8,8,16 -m 32 [-search] [-p P]
//	fxpaper store   -dir DIR {create|info|query} [args]
//	fxpaper check   -dir DIR
//
// -format is text, csv or json. Exit status: 0 on success, 1 when the
// job failed, 2 on a bad invocation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// commands maps a subcommand's name to the function that declares its
// flags on fs, parses args with them and writes its report to out.
var commands = map[string]func(fs *flag.FlagSet, args []string, out io.Writer) error{
	"tables":  runTables,
	"bench":   runBench,
	"figures": runFigures,
	"exp":     runExp,
	"plan":    runPlan,
	"store":   runStore,
	"check":   runCheck,
}

const usage = "usage: fxpaper {tables|bench|figures|exp|plan|store|check} [flags]"

// usageError is a bad invocation (exit status 2). The empty one stands
// for a flag error the flag package has already explained on errw.
type usageError string

func (e usageError) Error() string { return string(e) }

// newFlags returns the flag set of one subcommand; what the flag package
// has to say about a bad flag or -h goes to errw.
func newFlags(name string, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("fxpaper "+name, flag.ContinueOnError)
	fs.SetOutput(errw)
	return fs
}

// parse runs fs.Parse and turns its complaint into a usageError; -h
// comes back as flag.ErrHelp.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError("")
	}
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one invocation and returns the exit status: the one
// place an error becomes a message and a number.
func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(errw, usage)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(errw, "fxpaper: unknown subcommand %q\n%s\n", args[0], usage)
		return 2
	}
	err := cmd(newFlags(args[0], errw), args[1:], out)
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintf(errw, "fxpaper %s: %v\n", args[0], ue)
		}
		return 2
	}
	fmt.Fprintf(errw, "fxpaper %s: %v\n", args[0], err)
	return 1
}
