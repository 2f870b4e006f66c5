// Command conjecture runs randomized worst-case hunts against the exact
// offline optimum on tiny instances — the empirical side of the paper's
// theoretical claims:
//
//   - Theorem 7 (LWD ≤ 2): the hunt is a falsification attempt; it has
//     never found anything above the witnessed 1.11 at this scale.
//   - The MRD open problem ("is constant competitiveness achievable?"):
//     the hunt reports the largest certified ratio it can construct.
//
// Usage:
//
//	conjecture                    # hunt LWD and MRD at defaults
//	conjecture -policy LQD -trials 5000
package main

import (
	"flag"
	"fmt"
	"os"

	"smbm/internal/cli"
)

func main() {
	var (
		policyName = flag.String("policy", "", "single policy to hunt (default: LWD and MRD)")
		trials     = flag.Int("trials", 500, "random starting instances")
		climb      = flag.Int("climb", 50, "hill-climb steps per improvement")
		slots      = flag.Int("slots", 6, "trace length in slots")
		seed       = flag.Int64("seed", 1, "RNG seed")
	)
	flag.Parse()

	opts := cli.ConjectureOptions{
		Trials: *trials,
		Climb:  *climb,
		Slots:  *slots,
		Seed:   *seed,
	}
	if *policyName != "" {
		opts.Policies = []string{*policyName}
	}
	if err := cli.Conjecture(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "conjecture:", err)
		os.Exit(1)
	}
}
