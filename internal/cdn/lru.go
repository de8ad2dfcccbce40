package cdn

import (
	"container/list"
	"sync"
)

// LRUStats snapshots cache effectiveness.
type LRUStats struct {
	Hits, Misses uint64
	Evictions    uint64
	Objects      int
	UsedBytes    int64
}

// LRU is a byte-budget least-recently-used content cache.
type LRU struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	items    map[string]*list.Element
	order    *list.List
	stats    LRUStats
}

type lruEntry struct {
	content Content
}

// NewLRU returns a cache holding at most capacity bytes.
func NewLRU(capacity int64) *LRU {
	return &LRU{
		capacity: capacity,
		items:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Get returns the cached object and records a hit or miss.
func (l *LRU) Get(name string) (Content, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[name]
	if !ok {
		l.stats.Misses++
		return Content{}, false
	}
	l.order.MoveToFront(el)
	l.stats.Hits++
	return el.Value.(*lruEntry).content, true
}

// Contains reports presence without touching recency or stats.
func (l *LRU) Contains(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.items[name]
	return ok
}

// Put inserts content, evicting least-recently-used objects as needed.
// Objects larger than the whole cache are not stored.
func (l *LRU) Put(content Content) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if content.Size > l.capacity {
		return
	}
	if el, ok := l.items[content.Name]; ok {
		old := el.Value.(*lruEntry)
		l.used += content.Size - old.content.Size
		old.content = content
		l.order.MoveToFront(el)
		l.evictOverflow()
		return
	}
	l.items[content.Name] = l.order.PushFront(&lruEntry{content: content})
	l.used += content.Size
	l.evictOverflow()
}

func (l *LRU) evictOverflow() {
	for l.used > l.capacity {
		oldest := l.order.Back()
		if oldest == nil {
			return
		}
		ent := oldest.Value.(*lruEntry)
		l.order.Remove(oldest)
		delete(l.items, ent.content.Name)
		l.used -= ent.content.Size
		l.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters.
func (l *LRU) Stats() LRUStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Objects = len(l.items)
	s.UsedBytes = l.used
	return s
}

// Each calls fn for every cached object, most recently used first —
// the mesh announce path's content-table enumeration. fn runs under
// the cache lock and must not call back into the cache.
func (l *LRU) Each(fn func(Content)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for e := l.order.Front(); e != nil; e = e.Next() {
		fn(e.Value.(*lruEntry).content)
	}
}
