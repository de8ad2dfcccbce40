// Package cdn implements the content-delivery substrate of the
// MEC-CDN reproduction: an origin, tiered cache servers with
// byte-budget LRU caches, consistent-hash content placement, and the
// request router (C-DNS) that answers DNS queries for CDN domains with
// the address of a suitable cache server — the role Apache Traffic
// Control's Traffic Router plays in the paper's prototype.
package cdn

import (
	"fmt"
	"sync"
)

// Content identifies one cacheable object.
type Content struct {
	// Name is the object's identity, e.g. "video.demo1/chunk-0001".
	Name string
	// Size in bytes; drives LRU capacity accounting and (optionally)
	// transfer-time modelling.
	Size int64
}

// Catalog is the set of objects a CDN customer publishes.
type Catalog struct {
	// Domain is the CDN domain the catalog is served under.
	Domain string

	mu      sync.RWMutex
	objects map[string]Content
}

// NewCatalog returns an empty catalog for domain.
func NewCatalog(domain string) *Catalog {
	return &Catalog{Domain: domain, objects: make(map[string]Content)}
}

// Publish adds or replaces an object.
func (c *Catalog) Publish(content Content) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.objects[content.Name] = content
}

// PublishN bulk-publishes n uniformly-sized objects named
// "<prefix>-<i>"; handy for workload setup.
func (c *Catalog) PublishN(prefix string, n int, size int64) {
	for i := 0; i < n; i++ {
		c.Publish(Content{Name: fmt.Sprintf("%s-%04d", prefix, i), Size: size})
	}
}

// Get returns the object and whether it exists.
func (c *Catalog) Get(name string) (Content, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	obj, ok := c.objects[name]
	return obj, ok
}

// Origin is the authoritative store: it has every published object of
// every catalog registered with it.
type Origin struct {
	mu       sync.RWMutex
	catalogs map[string]*Catalog
}

// NewOrigin returns an empty origin.
func NewOrigin() *Origin {
	return &Origin{catalogs: make(map[string]*Catalog)}
}

// AddCatalog registers a customer catalog.
func (o *Origin) AddCatalog(c *Catalog) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.catalogs[c.Domain] = c
}

// Fetch returns the object from the origin store.
func (o *Origin) Fetch(domain, name string) (Content, bool) {
	o.mu.RLock()
	cat := o.catalogs[domain]
	o.mu.RUnlock()
	if cat == nil {
		return Content{}, false
	}
	return cat.Get(name)
}
