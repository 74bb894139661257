package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// goldenJSON holds the recorded outputs: workload -> seed -> one outcome
// per sub-seed. Regenerate an entry with --record after a change that is
// meant to alter outputs.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile map[string]map[string][]json.RawMessage

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// recordGolden runs every sub-seed of the workload once for each seed in
// the range lo-hi and writes the outcomes into the golden file at path.
func recordGolden(name string, w workloadDef, e *env, seeds, path string) error {
	if !w.recorded {
		return fmt.Errorf("%s checks its outputs inline and records none", name)
	}
	lo, hi, ok := strings.Cut(seeds, "-")
	if !ok {
		hi = lo
	}
	first, err1 := strconv.ParseInt(lo, 10, 64)
	last, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || first < 0 || last < first || last >= inputSets {
		return fmt.Errorf("--record wants an input-set range lo-hi within 0-%d, got %q", inputSets-1, seeds)
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if g[name] == nil {
		g[name] = map[string][]json.RawMessage{}
	}
	for seed := first; seed <= last; seed++ {
		e.seed = seed
		r, err := w.setup(e)
		if err != nil {
			return err
		}
		chk := newChecker(nil)
		n := w.subs(e.sizes)
		for i := 0; i < n; i++ {
			_, outcome, err := r.iterate(i, nil, chk)
			if err != nil {
				r.close()
				return fmt.Errorf("seed %d: %w", seed, err)
			}
			chk.outcome(i, outcome)
		}
		if err := r.close(); err != nil {
			return err
		}
		if chk.failed > 0 {
			return fmt.Errorf("seed %d: %s", seed, strings.Join(chk.notes, "; "))
		}
		outs := make([]json.RawMessage, n)
		for i := range outs {
			outs[i] = chk.first[i]
		}
		g[name][strconv.FormatInt(seed, 10)] = outs
		fmt.Printf("recorded %s seed %d\n", name, seed)
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
