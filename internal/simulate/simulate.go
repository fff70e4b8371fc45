// Package simulate plays failure and repair processes against SEC archives
// over discrete time, measuring observed archive availability and repair
// traffic. It is the dynamic counterpart of the paper's static resilience
// analysis (Section IV), which deliberately assumes "no further remedial
// actions are taken": the simulator adds the remedial action - device
// replacement followed by core.Archive.RepairNode - and quantifies how
// repair restores the static-analysis failure model step after step.
package simulate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// Config parameterizes a simulation run.
type Config struct {
	// FailurePerStep is the independent probability that an up node
	// fails during one step (crash + data loss on the device).
	FailurePerStep float64
	// RepairDelay is the number of steps a failed node stays down before
	// an empty replacement device arrives and is repaired. Use
	// NoRepair to disable repair entirely.
	RepairDelay int
	// Steps is the simulated duration.
	Steps int
	// Seed drives the failure process.
	Seed int64
}

// NoRepair disables device replacement.
const NoRepair = -1

// Result summarizes a simulation run.
type Result struct {
	// Steps is the number of simulated steps.
	Steps int
	// AvailableSteps counts steps at which the whole archive (all L
	// versions) was retrievable.
	AvailableSteps int
	// FailuresInjected counts node crashes.
	FailuresInjected int
	// RepairsCompleted counts successful device replacements.
	RepairsCompleted int
	// RepairsDeferred counts replacement attempts that had to wait
	// because too few survivors held the data.
	RepairsDeferred int
	// ShardsRebuilt is the number of shards reconstructed by repair.
	ShardsRebuilt int
	// RepairReads is the total repair traffic in node reads.
	RepairReads int
}

// Availability returns the fraction of steps the archive was fully
// retrievable.
func (r Result) Availability() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.AvailableSteps) / float64(r.Steps)
}

// Simulation input errors.
var (
	// errNilInputs rejects a run without an archive and its cluster.
	errNilInputs = errors.New("simulate: nil archive or cluster")
	// errNoVersions rejects a run against an archive with nothing stored.
	errNoVersions = errors.New("simulate: archive holds no versions")
)

// Run simulates the failure/repair process against the archive. The
// cluster must be the archive's cluster with every node a *store.MemNode
// (the simulation substrate); the archive must already hold its versions.
// The cluster is healed when the run finishes.
func Run(ctx context.Context, archive *core.Archive, cluster *store.Cluster, cfg Config) (Result, error) {
	var result Result
	if archive == nil || cluster == nil {
		return result, errNilInputs
	}
	if cfg.FailurePerStep < 0 || cfg.FailurePerStep > 1 {
		return result, fmt.Errorf("simulate: failure probability %v out of [0,1]", cfg.FailurePerStep)
	}
	if cfg.Steps <= 0 {
		return result, fmt.Errorf("simulate: steps %d must be positive", cfg.Steps)
	}
	if cfg.RepairDelay < 0 && cfg.RepairDelay != NoRepair {
		return result, fmt.Errorf("simulate: invalid repair delay %d", cfg.RepairDelay)
	}
	if archive.Versions() == 0 {
		return result, errNoVersions
	}
	nodes := make([]*store.MemNode, cluster.Size())
	for i := range nodes {
		n, err := cluster.Node(i)
		if err != nil {
			return result, err
		}
		mem, ok := n.(*store.MemNode)
		if !ok {
			return result, fmt.Errorf("simulate: node %d is %T, want *store.MemNode", i, n)
		}
		nodes[i] = mem
	}
	defer cluster.HealAll()

	rng := rand.New(rand.NewSource(cfg.Seed))
	downSince := make(map[int]int)
	result.Steps = cfg.Steps
	for step := 0; step < cfg.Steps; step++ {
		// Failures: an up node crashes and loses its device.
		for i, mem := range nodes {
			if _, down := downSince[i]; down {
				continue
			}
			if rng.Float64() < cfg.FailurePerStep {
				mem.SetFailed(true)
				downSince[i] = step
				result.FailuresInjected++
			}
		}
		// Replacements: after the delay, the node returns empty and is
		// repaired from the survivors.
		if cfg.RepairDelay != NoRepair {
			for i, since := range downSince {
				if step-since < cfg.RepairDelay {
					continue
				}
				nodes[i].Wipe()
				nodes[i].SetFailed(false)
				report, err := archive.RepairNodeContext(ctx, i)
				if err != nil {
					// Not enough survivors right now: put the node
					// back in the repair queue and try next step.
					nodes[i].SetFailed(true)
					result.RepairsDeferred++
					continue
				}
				delete(downSince, i)
				result.RepairsCompleted++
				result.ShardsRebuilt += report.ShardsRepaired
				result.RepairReads += report.NodeReads
			}
		}
		// Probe: is the whole archive retrievable right now?
		if _, _, err := archive.RetrieveAllContext(ctx, archive.Versions()); err == nil {
			result.AvailableSteps++
		}
	}
	return result, nil
}
