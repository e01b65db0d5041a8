package cpu

import "fmt"

// DebugTrace enables per-event tracing of memory-system activity
// (load issue, flush commit) on stdout; cmd/vpsim exposes it via the
// -memtrace flag for debugging attack programs.
var DebugTrace bool

func dbg(format string, args ...any) {
	if DebugTrace {
		fmt.Printf(format+"\n", args...)
	}
}
