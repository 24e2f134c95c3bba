// Command rvaasd is the operator entry point of the reproduction: a
// containerlab-style lab runner plus an ops CLI over the admin API.
//
//	rvaasd deploy -topo lab.yml            bring a declared lab up (UDP or
//	                                       in-proc channels, admin endpoint,
//	                                       signal-aware ordered shutdown)
//	rvaasd deploy -topo lab.yml -validate  dry-run: parse + validate only
//	rvaasd ops subs -filter status=violated -limit 50
//	                                       operate a running lab over HTTP
package main

import (
	"fmt"
	"io"
	"log"
	"os"
)

// out is the command output stream (swapped in e2e tests).
var out io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(exitCode(err))
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return usageErr("rvaasd: missing command (want deploy or ops)")
	}
	switch args[0] {
	case "deploy":
		return runDeploy(args[1:])
	case "ops":
		return runOps(args[1:])
	case "help":
		usage()
		return nil
	default:
		usage()
		return usageErr("rvaasd: unknown command %q (want deploy or ops)", args[0])
	}
}

func usage() {
	fmt.Fprint(out, `usage:
  rvaasd deploy -topo <spec.yml|spec.json> [-validate] [-reconfigure]
                [-admin host:port] [-run-for D]
  rvaasd ops <overview|version|subs|shards|sessions|procs|history|resync|faults>
             [-admin host:port] [-timeout D] ...
`)
}
