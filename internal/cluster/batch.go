package cluster

import (
	"context"
	"fmt"
	"sync"

	"mbasolver/internal/service"
	"mbasolver/internal/smt"
)

// This file is the router's batch fan-out engine: split a batch into
// per-node sub-batches by each item's canonical digest route key, send
// the sub-batches concurrently, fail items over to their next ring
// replica when a node cannot answer, reassemble everything in input
// order, and degrade items whose every replica failed to reasoned
// Unknowns instead of failing the batch.

// SendFunc posts one sub-batch to one node and returns the node's
// reply body. Implementations: the router's HTTP forward and test
// doubles. A non-nil error, or a body that is not a spliceable reply
// with one item per sub-batch item, counts as a node failure and
// triggers failover for every item in the sub-batch.
type SendFunc func(ctx context.Context, node string, req *service.BatchRequest) ([]byte, error)

// ExecuteOptions tunes one batch execution.
type ExecuteOptions struct {
	// Allow filters routable nodes (the router wires its health
	// tracker here). When every untried replica of an item is
	// disallowed, the engine tries them anyway — answering beats
	// refusing, exactly as the portfolio breakers force-admit when all
	// engines are open. Nil allows every node.
	Allow func(node string) bool
	// Report observes each send outcome (passive health marking).
	Report func(node string, ok bool)
}

// replicaWalk is the one failover order of the cluster, for single
// requests and batch items alike: a key's untried replicas in ring
// order, routable ones first, then the untried ones allow refuses
// (force-admitted — answering beats refusing), never a node twice.
type replicaWalk struct {
	seq  []string // replica preference order (ring sequence)
	used []bool   // seq[i] already tried
}

func newReplicaWalk(ring *Ring, key string) replicaWalk {
	seq := ring.Sequence(key)
	return replicaWalk{seq: seq, used: make([]bool, len(seq))}
}

// next marks and returns the next node to try, or "" once every
// replica has been tried. A nil allow admits every node.
func (w *replicaWalk) next(allow func(string) bool) string {
	pick := -1
	for i, n := range w.seq {
		if w.used[i] {
			continue
		}
		if allow == nil || allow(n) {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return ""
	}
	w.used[pick] = true
	return w.seq[pick]
}

// batchItemState tracks one item through failover rounds.
type batchItemState struct {
	idx  int // position in the original request
	item service.BatchItem
	walk replicaWalk
}

// ExecuteBatch runs req across the ring. The returned reply has one
// item per request item, in input order; Groups/Deduped/CacheHits are
// summed over the per-node sub-batches (dedup itself happens node-side,
// and the ring guarantees structurally identical items share a node,
// so cross-node duplicates cannot split a group). degraded counts the
// items no replica could answer; failovers counts the sub-batches that
// retried items on another replica after a failed forward.
func ExecuteBatch(ctx context.Context, ring *Ring, req *service.BatchRequest, send SendFunc, opts ExecuteOptions) (reply *BatchReply, degraded, failovers int) {
	reply = &BatchReply{items: make([]replyItem, len(req.Items))}

	var pending []*batchItemState
	for idx, it := range req.Items {
		key, err := it.RouteKey()
		if err != nil {
			// Malformed items never reach a node; the router answers them
			// with the same per-item error a node would produce.
			reply.items[idx] = localItem(service.BatchItemResult{Error: err.Error()})
			continue
		}
		pending = append(pending, &batchItemState{idx: idx, item: it, walk: newReplicaWalk(ring, key)})
	}

	// Failover rounds: each round sends every pending item to its next
	// untried replica, at most once per node per round, and degrades
	// the items whose walk is over; every walk ends, so the rounds do.
	// Every item pending after the first round had its forward fail, so
	// every sub-batch of a later round is a failover.
	for round := 0; len(pending) > 0; round++ {
		byNode := make(map[string][]*batchItemState)
		for _, st := range pending {
			node := st.walk.next(opts.Allow)
			if node == "" {
				reply.items[st.idx] = localItem(degradeItem(st.item))
				degraded++
				continue
			}
			byNode[node] = append(byNode[node], st)
		}

		if round > 0 {
			failovers += len(byNode)
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		pending = pending[:0]
		for node, items := range byNode {
			node, items := node, items
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub := &service.BatchRequest{
					Items:     make([]service.BatchItem, len(items)),
					TimeoutMS: req.TimeoutMS,
				}
				for i, st := range items {
					sub.Items[i] = st.item
				}
				data, err := send(ctx, node, sub)
				var nr nodeReply
				ok := err == nil && nr.parse(data, len(items))
				if opts.Report != nil {
					opts.Report(node, ok)
				}
				mu.Lock()
				defer mu.Unlock()
				if !ok {
					// The whole sub-batch failed; its items go another
					// round on their next replicas.
					pending = append(pending, items...)
					return
				}
				reply.Groups += nr.groups
				reply.Deduped += nr.deduped
				reply.CacheHits += nr.cacheHits
				quoted := appendJSON(nil, node)
				for i, st := range items {
					reply.items[st.idx] = replyItem{members: nr.items[i], node: quoted}
				}
			}()
		}
		wg.Wait()
	}
	return reply, degraded, failovers
}

// degradeItem returns the reasoned-Unknown answer for an item no node
// could take: solve items keep the solver's degradation shape (an
// Unknown verdict with a reason on the wire), simplify items report a
// reasoned error because simplification has no indefinite verdict.
func degradeItem(it service.BatchItem) service.BatchItemResult {
	if it.Solve != nil {
		return service.BatchItemResult{Solve: &service.SolveResponse{
			Status: smt.Unknown.String(),
			Reason: service.ReasonUnavailable,
			Width:  it.Solve.Width,
		}}
	}
	return service.BatchItemResult{Error: fmt.Sprintf("%s: no cluster node could run the item", service.ReasonUnavailable)}
}
