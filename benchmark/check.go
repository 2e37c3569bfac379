package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"kspot"
)

// reference computes a query's answers for epochs [from, from+n) the way
// the house bar defines them: the public API on the generated flat
// scenario, deterministic substrate, same SQL. Each entry is the JSON the
// daemon's SSE event carries in "answers".
func reference(in *inputs, sql string, from uint32, n int) ([][]byte, error) {
	sys, err := kspot.Open(in.Scenario)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	cur, err := sys.Post(sql)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make([][]byte, 0, n)
	for len(out) < n {
		res, err := cur.Step()
		if err != nil {
			return nil, err
		}
		if uint32(res.Epoch) < from {
			continue
		}
		if !res.Correct {
			return nil, fmt.Errorf("reference for %q diverged from its own oracle at epoch %d", sql, res.Epoch)
		}
		b, err := json.Marshal(res.Answers)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// audit is the correctness gate on one watcher's stream, once its reader
// has stopped: epochs gapless and in order, every event correct and
// error-free, and — withReference — the first auditEpochs answers
// byte-identical to the reference.
func (c passConfig) audit(res *passResult, in *inputs, wt *watcher, withReference bool) {
	res.Attempted += len(wt.events)
	if wt.err != nil {
		res.fail("watcher on query %d: stream broke: %v", wt.query, wt.err)
	}
	for _, b := range wt.bad {
		res.fail("watcher on query %d: %s", wt.query, b)
	}
	for i := 1; i < len(wt.events); i++ {
		if wt.events[i].epoch != wt.events[i-1].epoch+1 {
			res.fail("watcher on query %d: epoch %d follows %d", wt.query, wt.events[i].epoch, wt.events[i-1].epoch)
		}
	}
	if !withReference {
		return
	}
	if len(wt.answers) < auditEpochs {
		res.fail("watcher on query %d saw only %d events, the audit needs %d", wt.query, len(wt.answers), auditEpochs)
		return
	}
	want, err := reference(in, in.query(wt.query).SQL, wt.events[0].epoch, auditEpochs)
	if err != nil {
		res.fail("reference for query %d: %v", wt.query, err)
		return
	}
	for i := range want {
		if !bytes.Equal(wt.answers[i], want[i]) {
			res.fail("query %d epoch %d: daemon answered %s, reference %s", wt.query, wt.events[i].epoch, wt.answers[i], want[i])
		}
	}
}
