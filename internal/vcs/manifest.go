package vcs

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// repoManifest is the serializable repository state: the spec every file
// archive is created from (files first tracked after a Load included) and
// the commit log. The per-file archive manifests are the gateway's: a
// copy here would point at reclaimed codewords after the next compaction.
type repoManifest struct {
	Spec    core.Spec `json:"spec"`
	Commits []Commit  `json:"commits"`
}

// Save writes the repository metadata as JSON. Shards and per-file
// manifests stay on the cluster; Save captures what else is needed to
// reopen the repository against it.
func (r *Repository) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(repoManifest{Spec: r.spec, Commits: r.log()}); err != nil {
		return fmt.Errorf("vcs: encoding repository manifest: %w", err)
	}
	return nil
}

// Load reopens a repository from its manifest against the cluster holding
// its shards; each file's archive is opened from its cluster-replicated
// manifest when first used.
func Load(reader io.Reader, cluster *store.Cluster) (*Repository, error) {
	var m repoManifest
	if err := json.NewDecoder(reader).Decode(&m); err != nil {
		return nil, fmt.Errorf("vcs: decoding repository manifest: %w", err)
	}
	repo, err := open(m.Spec, cluster)
	if err != nil {
		return nil, err
	}
	// A file's versions only ever advance along the log (a failed commit
	// may make them skip, never repeat).
	latest := make(map[string]int)
	for i, c := range m.Commits {
		if c.Revision != i+1 {
			return nil, fmt.Errorf("vcs: manifest commit %d has revision %d", i, c.Revision)
		}
		for _, ch := range c.Changes {
			if ch.Version <= latest[ch.Path] {
				return nil, fmt.Errorf("vcs: manifest revision %d maps %q to version %d after version %d", c.Revision, ch.Path, ch.Version, latest[ch.Path])
			}
			latest[ch.Path] = ch.Version
		}
	}
	repo.commits = m.Commits
	return repo, nil
}
