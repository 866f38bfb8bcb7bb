package sat

// varHeap is a binary max-heap of variables ordered by VSIDS activity,
// with an index map for in-place priority updates. Variables not
// currently in the heap (because they are assigned) are re-inserted on
// backtracking.
type varHeap struct {
	activity *[]float64
	heap     []Var
	index    []int32 // var -> heap position, -1 if absent
}

func newVarHeap(activity *[]float64) *varHeap {
	return &varHeap{activity: activity}
}

// reset empties the heap, keeping its capacity.
func (h *varHeap) reset() {
	h.heap = h.heap[:0]
	h.index = h.index[:0]
}

func (h *varHeap) less(a, b Var) bool {
	return (*h.activity)[a] > (*h.activity)[b]
}

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.index) && h.index[v] >= 0
}

func (h *varHeap) insert(v Var) {
	for int(v) >= len(h.index) {
		h.index = append(h.index, -1)
	}
	if h.contains(v) {
		return
	}
	h.index[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.up(int(h.index[v]))
}

// update restores the heap property after v's activity increased.
func (h *varHeap) update(v Var) {
	if h.contains(v) {
		h.up(int(h.index[v]))
	}
}

func (h *varHeap) removeMax() (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.index[top] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.index[last] = 0
		h.down(0)
	}
	return top, true
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.index[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			best = right
		}
		if !h.less(h.heap[best], v) {
			break
		}
		h.heap[i] = h.heap[best]
		h.index[h.heap[i]] = int32(i)
		i = best
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}
