// Package cliflags defines the flags shared by every pabst binary
// (-policy, -ckpt, -resume), so a shared setting lands in one place
// instead of four near-identical flag blocks: the warm-start checkpoint
// store, which changes wall-clock behavior but never a simulated
// outcome, and the QoS policy pair, which every binary threads to the
// systems it builds.
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
		"QoS policy pair `src+tgt` from the plugin registry (empty halves keep mode defaults)")
	fs.StringVar(&c.Ckpt, "ckpt", "",
		"directory for post-warmup checkpoints; repeat runs restore instead of re-warming (bit-identical; ignored by binaries without a warmup phase)")
	fs.BoolVar(&c.Resume, "resume", false,
		"require a stored checkpoint (a miss is an error); implies -ckpt")
	return c
}

// Validate checks cross-flag constraints and resolves the policy pair.
func (c *Common) Validate() (source, target string, err error) {
	if c.Resume && c.Ckpt == "" {
		return "", "", fmt.Errorf("-resume needs -ckpt <dir>")
	}
	return pabst.ParsePolicyPair(c.Policy)
}

// Apply validates the flags and stamps them onto a Scale.
func (c *Common) Apply(s *exp.Scale) error {
	src, tgt, err := c.Validate()
	if err != nil {
		return err
	}
	s.Ckpt = c.Ckpt
	s.Resume = c.Resume
	s.SourcePolicy, s.TargetPolicy = src, tgt
	return nil
}

// Exec validates the flags and returns them as a spec-runner
// environment.
func (c *Common) Exec() (exp.Exec, error) {
	if _, _, err := c.Validate(); err != nil {
		return exp.Exec{}, err
	}
	return exp.Exec{Ckpt: c.Ckpt, Resume: c.Resume}, nil
}

// Options validates the flags and returns the policy pair as builder
// options, for binaries that construct systems directly rather than
// through a Scale.
func (c *Common) Options() ([]pabst.Option, error) {
	src, tgt, err := c.Validate()
	if err != nil {
		return nil, err
	}
	return []pabst.Option{pabst.WithPolicy(src, tgt)}, nil
}
