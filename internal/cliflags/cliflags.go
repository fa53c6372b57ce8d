// Package cliflags defines the flags shared by the simulating binaries
// pabstsim, pabstsweep and pabsttrace (-policy, -ckpt, -resume), so a
// shared setting lands in one place instead of three near-identical
// flag blocks (pabstserve and pabstdocs take none of them): the
// warm-start checkpoint store, which changes wall-clock behavior but
// never a simulated outcome, and the QoS policy override, which reaches
// the systems a binary builds by one route (Apply stamps it onto the
// exp.Scale).
package cliflags

import (
	"flag"
	"fmt"

	"pabst"
	"pabst/internal/exp"
)

// Common holds the parsed values of the shared flags.
type Common struct {
	Policy string
	Ckpt   string
	Resume bool
}

// Register installs the shared flag set on fs and returns the struct
// the values land in after fs.Parse. Binaries pass flag.CommandLine and
// add their own flags around the call.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.Policy, "policy", "",
		"QoS mechanism `src+tgt` (or a preset name) replacing each run's mode; an empty half keeps that side, and a run that names its own pair keeps it (DESIGN.md, \"Selecting a mechanism\")")
	fs.StringVar(&c.Ckpt, "ckpt", "",
		"directory for post-warmup checkpoints; repeat runs restore instead of re-warming (bit-identical; ignored by binaries without a warmup phase)")
	fs.BoolVar(&c.Resume, "resume", false,
		"require a stored checkpoint (a miss is an error); implies -ckpt")
	return c
}

// Validate checks cross-flag constraints and parses the -policy
// override (the zero pair when the flag is unset).
func (c *Common) Validate() (pabst.Mode, error) {
	if c.Resume && c.Ckpt == "" {
		return pabst.Mode{}, fmt.Errorf("-resume needs -ckpt <dir>")
	}
	return pabst.ParseMode(c.Policy)
}

// Apply validates the flags and stamps them onto a Scale, the one route
// by which they reach the systems a binary builds through internal/exp.
func (c *Common) Apply(s *exp.Scale) error {
	over, err := c.Validate()
	if err != nil {
		return err
	}
	s.Ckpt = c.Ckpt
	s.Resume = c.Resume
	s.Policy = over
	return nil
}
