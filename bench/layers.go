package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sqlparse"
)

// The front end has no seam a decorator could wrap, so its layers are
// measured by replaying a sample of the workload's statements through the
// same public calls QueryOptsCtx makes, one stage at a time.

// replay holds mean microseconds (and arena bytes) per statement.
type replay struct {
	parseUS, normalizeUS, arenaBytes float64
	bindUS, buildUS, optimizeUS      float64
}

const (
	replaySample = 256
	replayPasses = 5
)

// sourceEnv is an opt.Env over the sources' public surface: what the
// engine's own environment answers for a healthy single node with no
// feedback recorded.
type sourceEnv map[string]federation.Source

func (e sourceEnv) Caps(source string) federation.Caps {
	if s, ok := e[strings.ToLower(source)]; ok {
		return s.Capabilities()
	}
	return federation.ScanOnly()
}

func (e sourceEnv) Link(source string) *netsim.Link {
	if s, ok := e[strings.ToLower(source)]; ok {
		return s.Link()
	}
	return nil
}

func (e sourceEnv) Stats(source, table string) *schema.TableStats {
	if s, ok := e[strings.ToLower(source)]; ok {
		if st, ok := s.Catalog().Stats(table); ok {
			return st
		}
	}
	return nil
}

// replayFrontEnd times each front-end stage over a sample of statements
// and returns the median pass.
func (fx *fixture) replayFrontEnd(sample []*stmt) (replay, error) {
	if len(sample) > replaySample {
		sample = sample[:replaySample]
	}
	env := sourceEnv{}
	for _, s := range fx.fed.Sources() {
		env[strings.ToLower(s.Name())] = s
	}
	snap := fx.engine.Catalog().Snapshot()

	passes := make([][6]float64, replayPasses)
	for p := range passes {
		var parse, normalize, bind, build, optimize time.Duration
		var arena int64
		for _, s := range sample {
			ar := sqlparse.GetArena()
			t0 := netsim.Wall.Now()
			sel, err := sqlparse.ParseArena(ar, s.sql)
			parse += netsim.Wall.Since(t0)
			if err != nil {
				return replay{}, err
			}

			t0 = netsim.Wall.Now()
			params, cacheable := sqlparse.ExtractParamsIn(ar, sel)
			norm := ar.RenderSQL(sel)
			normalize += netsim.Wall.Since(t0)
			if !cacheable {
				return replay{}, fmt.Errorf("bench: statement bypasses the plan cache: %s", s.sql)
			}

			// A miss compiles the normalized text from the heap, as
			// Engine.cachedTemplate does.
			heapSel, err := sqlparse.Parse(norm)
			if err != nil {
				return replay{}, err
			}
			t0 = netsim.Wall.Now()
			logical, err := plan.Build(snap, heapSel)
			build += netsim.Wall.Since(t0)
			if err != nil {
				return replay{}, err
			}
			t0 = netsim.Wall.Now()
			tmpl := opt.Optimize(logical, env, opt.Options{})
			optimize += netsim.Wall.Since(t0)

			t0 = netsim.Wall.Now()
			_, err = plan.BindParamsIn(ar, tmpl, params)
			bind += netsim.Wall.Since(t0)
			if err != nil {
				return replay{}, err
			}
			arena += ar.Bytes()
			sqlparse.PutArena(ar)
		}
		n := float64(len(sample))
		passes[p] = [6]float64{us(parse) / n, us(normalize) / n, float64(arena) / n,
			us(bind) / n, us(build) / n, us(optimize) / n}
	}

	var med [6]float64
	for i := range med {
		col := make([]float64, replayPasses)
		for p := range passes {
			col[p] = passes[p][i]
		}
		sort.Float64s(col)
		med[i] = col[replayPasses/2]
	}
	return replay{med[0], med[1], med[2], med[3], med[4], med[5]}, nil
}
