// Package qospolicy is the policy-plugin registry for QoS mechanisms:
// the seam that turns the simulator from "the PABST mechanism plus two
// hardwired baselines" into a pluggable testbench where any source-side
// regulation scheme can be composed with any target-side scheduling
// scheme.
//
// A mechanism has two independently pluggable halves, mirroring the
// source/target split the PABST paper itself articulates:
//
//   - A source policy implements regulate.Source — the per-tile pacer
//     gating L2 misses into the SoC network, which also tells the event
//     kernel when its next grant falls due (NextIssueAt). One instance
//     is built per attached tile.
//   - A target policy supplies a dram.ReadSched ordering plus an
//     optional dram.Arbiter — the memory-controller front-end
//     prioritization. One arbiter instance is built per controller.
//
// Policies are registered by name at package init and looked up by
// NewSource/NewTarget when internal/soc wires a machine. Which two run
// is a Pair; ParsePair is the one parser of a selector string and
// Pair.Over the one merge of selection layers, so a pair selected
// anywhere (a -policy flag, a RunSpec, pabst.WithPolicy) names the same
// construction. The accepted spellings, the five presets and the
// precedence rule are documented once, in DESIGN.md under "Selecting a
// mechanism".
//
// # Contracts
//
// Every registered policy must honor the three contracts documented for
// contributors in docs/POLICY_AUTHORING.md:
//
// Determinism. A policy may use only its constructor inputs and the
// event stream it observes (CanIssue/OnIssue/OnResponse/OnDemand/Epoch,
// or OnAccept/OnPick). No wall clocks, no maps iterated in hash order,
// no floating-point reductions whose order varies: runs must be
// bit-identical on the event kernel and the reference loop, which the
// cross-policy matrix test enforces for every registered pair.
//
// Checkpointing. A policy holding mutable state implements ckpt.Walker:
// one method, Ckpt(c *ckpt.Codec), that visits every field a future
// decision depends on, in a fixed order, through the codec's pointer
// primitives. The same walk saves and restores, so the two cannot
// disagree. The soc walk visits tile sources behind a presence marker
// and target arbiters alongside their controllers, probing for the method
// once for both directions. A stateless policy simply leaves it out.
//
// Observability. A source policy exposes its regulator registers by
// implementing regulate.Probe; a target arbiter exposes its deadline
// horizon via a LastPicked() uint64 method. Probes are read-only and
// must not perturb simulation state — the observer-never-perturbs test
// runs with probes on and off and demands identical fingerprints.
//
// # Registered mechanisms
//
// Sources: none (pass-through), static (fixed non-work-conserving
// limit), pabst (the paper's adaptive governor; one lane per controller
// when Params.PerMCGovernors is set), bankreg (per-channel bandwidth
// budgets in the spirit of per-bank regulation), lmsar (LMS
// prediction-based adaptive regulation). Targets: fcfs (arrival
// order), pabst (the paper's earliest-virtual-deadline arbiter), dpq
// (dynamic-priority bounded-latency arbiter).
package qospolicy
