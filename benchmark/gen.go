package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"kspot"
)

// post is one generated query and how the daemon must answer its POST.
type post struct {
	SQL    string `json:"sql"`
	Tenant string `json:"tenant,omitempty"`
	K      int    `json:"k"`
	Want   int    `json:"want"` // expected HTTP status: 200, or 429 where the quota predicts it
}

// inputs is everything a run feeds the system under test, derived from
// (workload, seed) alone. The daemon sees only the scenario file and the
// posted SQL.
type inputs struct {
	W        workload
	Seed     int64
	Scenario *kspot.Scenario // flat; sharded deployments split it with AutoShard, as kspotd -shards does
	Primary  post            // query 0, posted by the daemon itself at boot
	Setup    []post          // queries 1.., POSTed during set-up
	Phase    []post          // the post phase
	Watch    []int           // watched query index per watcher
}

// aggregates are the sensing signatures the generator draws from: queries
// differing only in the aggregate fall in different acquisition groups.
var aggregates = []string{"AVG", "MAX"}

func querySQL(k int, agg string) string {
	return fmt.Sprintf("SELECT TOP %d roomid, %s(sound) FROM sensors GROUP BY roomid", k, agg)
}

// primaryK is kspotd's default -k.
const primaryK = 3

// watchers is the number of passive SSE connections: with the control
// connection the generator holds at most nproc connections in a window.
func watchers() int { return max(1, runtime.NumCPU()-1) }

// generate derives a run's inputs. small swaps every scenario for the
// 14-node demo (the tests' smoke pass); the query mix is unchanged.
func generate(w workload, seed int64, small bool) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + int64(h.Sum64()>>1)))

	scen := kspot.DemoScenario()
	if w.Scale > 0 && !small {
		var err error
		if scen, err = kspot.ScaleScenario(w.Scale); err != nil {
			return nil, err
		}
	}
	scen.Workload.Seed = 1 + rng.Int63n(1<<40)

	in := &inputs{W: w, Seed: seed, Scenario: scen,
		Primary: post{SQL: querySQL(primaryK, aggregates[0]), K: primaryK, Want: 200}}

	// Exact split of the live queries over sense keys and tenants, in a
	// seeded order; the primary already holds one seat of key 0.
	posted := w.Queries - 1
	keys := make([]int, 0, posted)
	for i := 0; i < posted; i++ {
		keys = append(keys, (i+1)%w.SenseKeys)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	tenants := make([]string, posted)
	if w.Tenants > 0 {
		for i := range tenants {
			tenants[i] = fmt.Sprintf("tenant-%d", i%w.Tenants)
		}
		rng.Shuffle(len(tenants), func(i, j int) { tenants[i], tenants[j] = tenants[j], tenants[i] })
	}
	// K cycles 1..4 before the shuffle: every seed posts the same mix of
	// depths (so the groups always acquire at K=4 and a watched K=3 query
	// always exists); which query gets which K is the seed's.
	ks := make([]int, posted)
	for i := range ks {
		ks[i] = 1 + i%4
	}
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	live := map[string]int{"": 1} // the primary rides the empty tenant
	for i := 0; i < posted; i++ {
		in.Setup = append(in.Setup, post{SQL: querySQL(ks[i], aggregates[keys[i]]), Tenant: tenants[i], K: ks[i], Want: 200})
		live[tenants[i]]++
	}

	// Post phase: tenants round-robin, sent in a seeded order. Nothing is
	// ever closed over HTTP, so a tenant's live count only grows and the
	// quota arithmetic is a running count in sending order.
	for i := 0; i < w.Posts; i++ {
		k := 1 + rng.Intn(4)
		p := post{SQL: querySQL(k, aggregates[rng.Intn(w.SenseKeys)]), K: k}
		if w.Tenants > 0 {
			p.Tenant = fmt.Sprintf("tenant-%d", i%w.Tenants)
		}
		in.Phase = append(in.Phase, p)
	}
	rng.Shuffle(len(in.Phase), func(i, j int) { in.Phase[i], in.Phase[j] = in.Phase[j], in.Phase[i] })
	for i := range in.Phase {
		p := &in.Phase[i]
		if w.Quota > 0 && live[p.Tenant] >= w.Quota {
			p.Want = 429
			continue
		}
		p.Want = 200
		live[p.Tenant]++
	}

	// Watched queries: drawn from those as deep as the primary, so an SSE
	// event is the same size on every seed; distinct while there are enough.
	var sameK []int
	for _, q := range rng.Perm(w.Queries) {
		if in.query(q).K == primaryK {
			sameK = append(sameK, q)
		}
	}
	for i := 0; i < watchers(); i++ {
		in.Watch = append(in.Watch, sameK[i%len(sameK)])
	}
	return in, nil
}

// predicted429 is the quota arithmetic's count of refusals in the post phase.
func (in *inputs) predicted429() int {
	n := 0
	for _, p := range in.Phase {
		if p.Want == 429 {
			n++
		}
	}
	return n
}

// query returns live query i (0 = the primary).
func (in *inputs) query(i int) post {
	if i == 0 {
		return in.Primary
	}
	return in.Setup[i-1]
}

// write saves the generated inputs: the scenario the daemons load, and
// the query list for whoever inspects a failed run.
func (in *inputs) write(dir string) (scenarioPath string, err error) {
	scenarioPath = filepath.Join(dir, "scenario.json")
	if err := in.Scenario.Save(scenarioPath); err != nil {
		return "", err
	}
	list, err := json.MarshalIndent(struct {
		Primary post   `json:"primary"`
		Setup   []post `json:"setup"`
		Phase   []post `json:"phase"`
		Watch   []int  `json:"watch"`
	}{in.Primary, in.Setup, in.Phase, in.Watch}, "", " ")
	if err != nil {
		return "", err
	}
	return scenarioPath, os.WriteFile(filepath.Join(dir, "queries.json"), list, 0o644)
}
