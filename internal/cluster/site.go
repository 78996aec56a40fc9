package cluster

import (
	"fmt"

	"repro/internal/medici"
)

// Site is one HPC cluster in the testbed: a balancing-authority control
// center hosting a master node (the interface layer: middleware client +
// data processor) and a pool of compute workers. core's drivers run the
// estimations placed on a site, at the site's width.
type Site struct {
	Name    string
	Workers int // the wls.Options.Workers of a solve placed here

	client *medici.MWClient
}

// NewSite creates a site, binds its middleware client on listenAddr
// (":0" picks an ephemeral port) and registers it under its name.
func NewSite(name string, workers int, listenAddr string, reg *medici.Registry, tr medici.Transport) (*Site, error) {
	if workers <= 0 {
		workers = 1
	}
	cl, err := medici.NewMWClient(name, listenAddr, reg, tr, medici.LengthPrefixProtocol{}, 256)
	if err != nil {
		return nil, fmt.Errorf("cluster: site %s: %w", name, err)
	}
	return &Site{Name: name, Workers: workers, client: cl}, nil
}

// Client returns the site's middleware client (interface layer).
func (s *Site) Client() *medici.MWClient { return s.client }

// URL returns the site's endpoint URL.
func (s *Site) URL() string { return s.client.URL() }

// Close releases the site's network resources.
func (s *Site) Close() error { return s.client.Close() }

// Testbed is a set of sites with a shared registry, mirroring the paper's
// three-cluster laboratory network.
type Testbed struct {
	Registry *medici.Registry
	Sites    []*Site
}

// NewTestbed builds n sites named after the paper's clusters (Nwiceb,
// Catamount, Chinook, then site3, site4, …), each with the given worker
// count, connected over tr (nil = plain loopback TCP).
func NewTestbed(n, workersPerSite int, tr medici.Transport) (*Testbed, error) {
	names := []string{"Nwiceb", "Catamount", "Chinook"}
	reg := medici.NewRegistry()
	tb := &Testbed{Registry: reg}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("site%d", i)
		if i < len(names) {
			name = names[i]
		}
		s, err := NewSite(name, workersPerSite, "127.0.0.1:0", reg, tr)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Sites = append(tb.Sites, s)
	}
	return tb, nil
}

// Close releases every site. All sites hang up their outbound links before
// any closes its listener, so each link is closed from its dialing end (see
// medici.MWClient.HangUp for what the other order costs).
func (t *Testbed) Close() {
	for _, s := range t.Sites {
		s.Client().HangUp()
	}
	for _, s := range t.Sites {
		s.Close()
	}
}
