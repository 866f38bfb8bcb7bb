package cluster

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"

	"mbasolver/internal/service"
)

// This file keeps the router's batch responses as wire bytes. A node's
// reply is read only for its counters and the byte range of each item;
// the router writes each item's bytes into its own response with two
// edits, the item's index and its node stamp, and encodes only the
// items it answers itself.

// BatchReply is a reassembled batch response held as wire bytes.
type BatchReply struct {
	Groups, Deduped, CacheHits int
	items                      []replyItem
}

// replyItem is one item of a BatchReply: its JSON members after the
// index, each led by a comma, and the JSON-quoted URL of the node that
// answered it (nil for router answers). A node's members are a
// sub-slice of its reply body.
type replyItem struct {
	members []byte
	node    []byte
}

// AppendJSON appends the reply's body to b, byte for byte what
// service.WriteJSON writes for the equivalent service.BatchResponse:
// each item gets its input position as its index and the node that
// answered it stamped last, replacing any stamp an inner router put
// there.
func (r *BatchReply) AppendJSON(b []byte, elapsedMS float64, requestID string) []byte {
	n := 128 + len(requestID) // the envelope and the tail, unescaped
	for _, it := range r.items {
		n += len(itemPrefix) + 8 + len(it.members) + len(`,"node":`) + len(it.node) + 2
	}
	b = append(slices.Grow(b, n), `{"items":[`...)
	for i, it := range r.items {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, itemPrefix...), int64(i), 10)
		b = append(b, it.members...)
		if it.node != nil {
			b = append(append(b, `,"node":`...), it.node...)
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	// The tail is a service.BatchResponse without items, less its
	// opening `{"items":null`.
	at := len(b)
	b = appendJSON(b, service.BatchResponse{Groups: r.Groups, Deduped: r.Deduped, CacheHits: r.CacheHits, ElapsedMS: elapsedMS, RequestID: requestID})
	b = append(b[:at], b[at+len(`{"items":null`):]...)
	return append(b, '\n')
}

// appendJSON appends v encoded in the service's wire form (encoding/json
// without HTML escaping, as service.WriteJSON writes it) to b, without
// the encoder's trailing newline.
func appendJSON(b []byte, v any) []byte {
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return b
	}
	out := buf.Bytes()
	return out[:len(out)-1]
}

// itemPrefix opens every item a node or the router encodes: Index is
// the first field of service.BatchItemResult.
const itemPrefix = `{"index":`

// localItem encodes an item the router answers itself.
func localItem(res service.BatchItemResult) replyItem {
	enc := appendJSON(nil, res) // {"index":0,...}
	return replyItem{members: enc[len(itemPrefix)+1 : len(enc)-1]}
}

// nodeReply is a node's batch reply read without decoding its items:
// the three counters the router sums, and for each item the members it
// splices into its own response.
type nodeReply struct {
	groups, deduped, cacheHits int
	items                      [][]byte // replyItem.members, sub-slices of the body
}

// parse reads data as a batch reply with want items. The reply must be
// valid JSON written compactly, as encoding/json writes it, with each
// item's index first and its node stamp, if any, last. Otherwise, or
// with another item count, parse reports false, and the caller treats
// that as a failed forward, like any undecodable reply.
func (r *nodeReply) parse(data []byte, want int) bool {
	data = bytes.TrimSpace(data)
	if !json.Valid(data) || data[0] != '{' {
		return false
	}
	r.items = make([][]byte, 0, want)
	ok := eachMember(data, func(_ int, key, val []byte) (ok bool) {
		switch string(key) {
		case "items":
			return r.splitItems(val)
		case "groups":
			r.groups, ok = counter(val)
		case "deduped":
			r.deduped, ok = counter(val)
		case "cache_hits":
			r.cacheHits, ok = counter(val)
		default:
			ok = true
		}
		return ok
	})
	return ok && len(r.items) == want
}

// splitItems sets r.items to the members of every item of arr, a JSON
// array or null.
func (r *nodeReply) splitItems(arr []byte) bool {
	r.items = r.items[:0]
	if arr[0] != '[' {
		return string(arr) == "null"
	}
	for i := 1; arr[i] != ']'; {
		if i > 1 {
			if arr[i] != ',' {
				return false
			}
			i++
		}
		end := skipValue(arr, i)
		if end == i || arr[i] != '{' {
			return false
		}
		members, ok := itemMembers(arr[i:end])
		if !ok {
			return false
		}
		r.items = append(r.items, members)
		i = end
	}
	return true
}

// itemMembers returns the members of one reply item, a JSON object,
// that the router copies: everything after its index value and before
// its node stamp.
func itemMembers(item []byte) ([]byte, bool) {
	start, end := 0, len(item)-1
	ok := eachMember(item, func(at int, key, val []byte) bool {
		switch {
		case at == 1: // the index comes first
			_, ok := counter(val)
			start = at + len(`"index":`) + len(val)
			return ok && string(key) == "index"
		case string(key) == "node": // the stamp comes last
			end = at
			return at+len(`,"node":`)+len(val) == len(item)-1
		}
		return true
	})
	if !ok || start == 0 {
		return nil, false
	}
	return item[start:end], true
}

// eachMember calls fn with the offset, key and value of every member
// of obj, a JSON object json.Valid accepted; a member's offset is that
// of the '{' or ',' before it. It reports false when obj is not
// compact or fn does.
func eachMember(obj []byte, fn func(at int, key, val []byte) bool) bool {
	i := 1
	for obj[i] != '}' {
		at := i
		if at > 1 {
			if obj[i] != ',' {
				return false
			}
			i++
		}
		if obj[i] != '"' {
			return false
		}
		keyEnd := skipString(obj, i)
		if obj[keyEnd] != ':' {
			return false
		}
		end := skipValue(obj, keyEnd+1)
		if end == keyEnd+1 || !fn(at, obj[i+1:keyEnd-1], obj[keyEnd+1:end]) {
			return false
		}
		i = end
	}
	return i == len(obj)-1
}

// counter reads a non-negative decimal counter.
func counter(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, len(b) > 0
}

// skipString returns the index just past the string opening at b[i],
// in a document json.Valid accepted.
func skipString(b []byte, i int) int {
	for i++; b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// skipValue returns the index just past the value starting at b[i], in
// a document json.Valid accepted.
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		for depth := 0; ; i++ {
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	for ; i < len(b); i++ { // a number, true, false or null
		switch b[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return i
		}
	}
	return i
}
