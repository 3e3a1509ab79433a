// Package workload builds the deterministic synthetic federations the
// examples and benchmarks run against: the CRM universe of §1 ("provide the
// customer-facing worker a global view of a customer whose data is residing
// in multiple sources") and the employee universe of §4 ("single view of
// employee"). All generation is seeded, so every run sees identical data.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/docstore"
	"repro/internal/federation"
	"repro/internal/netsim"
	"repro/internal/schema"
)

// Regions, segments and name fragments for deterministic data.
var (
	regions    = []string{"west", "east", "north", "south"}
	segments   = []string{"enterprise", "midmarket", "smb"}
	statuses   = []string{"paid", "open", "overdue"}
	firstNames = []string{"Ann", "Bob", "Cal", "Dee", "Eli", "Fay", "Gus", "Hal", "Ida", "Jo",
		"Kim", "Lou", "Mia", "Ned", "Ora", "Pat", "Quin", "Rae", "Sid", "Tess"}
	lastNames = []string{"Stone", "Rivera", "Chen", "Okafor", "Haas", "Lindt", "Moss", "Iqbal",
		"Fonda", "Grieg", "Banks", "Cruz", "Duval", "Egan", "Frost", "Gale"}
	depts     = []string{"sales", "engineering", "finance", "support", "legal"}
	locations = []string{"SEA", "NYC", "AUS", "LON"}
	models    = []string{"T480", "X1", "M2Air", "M3Pro", "XPS13"}
)

// CustomerName returns the deterministic display name of customer i.
func CustomerName(i int) string {
	return firstNames[i%len(firstNames)] + " " + lastNames[(i/len(firstNames))%len(lastNames)] + fmt.Sprintf(" #%d", i)
}

// CRMConfig sizes the CRM federation.
type CRMConfig struct {
	Customers           int
	InvoicesPerCustomer int
	TicketsPerCustomer  int
	Seed                int64
	LinkLatency         time.Duration
	LinkBandwidth       float64 // bytes/second
	SerializationFactor float64 // 3 models the XML inflation of §3
}

// DefaultCRM is a laptop-scale federation.
func DefaultCRM() CRMConfig {
	return CRMConfig{
		Customers:           500,
		InvoicesPerCustomer: 4,
		TicketsPerCustomer:  2,
		Seed:                1,
		LinkLatency:         2 * time.Millisecond,
		LinkBandwidth:       10e6,
		SerializationFactor: 1,
	}
}

// CRMOf builds the default federation sized to the given customer count.
func CRMOf(customers int) (*CRMFederation, error) {
	cfg := DefaultCRM()
	cfg.Customers = customers
	return BuildCRM(cfg)
}

// CRMFederation is the assembled CRM universe.
type CRMFederation struct {
	Engine  *core.Engine
	CRM     *federation.RelationalSource // customers
	Billing *federation.RelationalSource // invoices
	Support *federation.CSVSource        // tickets (filter-only wrapper)
}

// BuildCRM assembles the three-source CRM federation and defines the
// customer360 mediated view.
func BuildCRM(cfg CRMConfig) (*CRMFederation, error) {
	if cfg.Customers <= 0 {
		cfg = DefaultCRM()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mkLink := func() *netsim.Link {
		return netsim.NewLink(cfg.LinkLatency, cfg.LinkBandwidth, cfg.SerializationFactor)
	}

	crm := federation.NewRelationalSource("crm", federation.FullSQL(), mkLink())
	customers, err := crm.CreateTable(schema.MustTable("customers", []schema.Column{
		{Name: "id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "region", Kind: datum.KindString},
		{Name: "segment", Kind: datum.KindString},
	}, 0))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Customers; i++ {
		err := customers.Insert(datum.Row{
			datum.NewInt(int64(i + 1)),
			datum.NewString(CustomerName(i)),
			datum.NewString(regions[rng.Intn(len(regions))]),
			datum.NewString(segments[rng.Intn(len(segments))]),
		})
		if err != nil {
			return nil, err
		}
	}
	crm.RefreshStats()

	billing := federation.NewRelationalSource("billing", federation.FullSQL(), mkLink())
	invoices, err := billing.CreateTable(schema.MustTable("invoices", []schema.Column{
		{Name: "inv_id", Kind: datum.KindInt},
		{Name: "cust_id", Kind: datum.KindInt},
		{Name: "amount", Kind: datum.KindFloat},
		{Name: "status", Kind: datum.KindString},
	}, 0))
	if err != nil {
		return nil, err
	}
	// The foreign-key index a billing database carries: the mediated view
	// joins on it, so semi-join key lists and point lookups arrive on it.
	if err := invoices.CreateIndex("invoices_cust_id", []string{"cust_id"}, false); err != nil {
		return nil, err
	}
	inv := 0
	for i := 0; i < cfg.Customers; i++ {
		for j := 0; j < cfg.InvoicesPerCustomer; j++ {
			inv++
			err := invoices.Insert(datum.Row{
				datum.NewInt(int64(inv)),
				datum.NewInt(int64(i + 1)),
				datum.NewFloat(float64(10 + rng.Intn(990))),
				datum.NewString(statuses[rng.Intn(len(statuses))]),
			})
			if err != nil {
				return nil, err
			}
		}
	}
	billing.RefreshStats()

	support := federation.NewCSVSource("support", mkLink())
	var csv strings.Builder
	csv.WriteString("ticket_id,cust_id,severity,opened_by\n")
	tid := 0
	for i := 0; i < cfg.Customers; i++ {
		for j := 0; j < cfg.TicketsPerCustomer; j++ {
			tid++
			fmt.Fprintf(&csv, "%d,%d,%d,%s\n", tid, i+1, 1+rng.Intn(4),
				firstNames[rng.Intn(len(firstNames))])
		}
	}
	if _, err := support.LoadCSV("tickets", csv.String()); err != nil {
		return nil, err
	}

	f := &CRMFederation{CRM: crm, Billing: billing, Support: support}
	engine, err := f.NewEngine()
	if err != nil {
		return nil, err
	}
	f.Engine = engine
	return f, nil
}

// customer360SQL is the GAV mapping every CRM mediator (single engine or
// cluster node) defines.
const customer360SQL = `
	SELECT c.id AS id, c.name AS name, c.region AS region, c.segment AS segment,
	       i.inv_id AS inv_id, i.amount AS amount, i.status AS status
	FROM crm.customers c JOIN billing.invoices i ON c.id = i.cust_id`

// Sources lists the federation's sources, for registering into additional
// engines: cluster nodes are mediators over one shared source fleet.
func (f *CRMFederation) Sources() []federation.Source {
	return []federation.Source{f.CRM, f.Billing, f.Support}
}

// NewEngine builds another mediator over the same source fleet with the
// same mediated views — a cluster node. The returned engine shares the
// sources (and their links) with f.Engine but nothing else.
func (f *CRMFederation) NewEngine() (*core.Engine, error) {
	engine := core.New()
	for _, s := range f.Sources() {
		if err := engine.Register(s); err != nil {
			return nil, err
		}
	}
	if err := engine.DefineView("customer360", customer360SQL); err != nil {
		return nil, err
	}
	return engine, nil
}

// EmployeeConfig sizes the employee federation.
type EmployeeConfig struct {
	Employees           int
	Seed                int64
	LinkLatency         time.Duration
	LinkBandwidth       float64
	SerializationFactor float64
}

// DefaultEmployees is a laptop-scale employee universe.
func DefaultEmployees() EmployeeConfig {
	return EmployeeConfig{
		Employees:     400,
		Seed:          7,
		LinkLatency:   2 * time.Millisecond,
		LinkBandwidth: 10e6,
	}
}

// EmployeeFederation is §4's "single view of employee" universe: HR,
// facilities and IT-assets systems plus the employee360 view.
type EmployeeFederation struct {
	Engine     *core.Engine
	HR         *federation.RelationalSource
	Facilities *federation.RelationalSource
	IT         *federation.RelationalSource // filter-only wrapper
}

// BuildEmployees assembles the employee federation.
func BuildEmployees(cfg EmployeeConfig) (*EmployeeFederation, error) {
	if cfg.Employees <= 0 {
		cfg = DefaultEmployees()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mkLink := func() *netsim.Link {
		return netsim.NewLink(cfg.LinkLatency, cfg.LinkBandwidth, cfg.SerializationFactor)
	}

	hr := federation.NewRelationalSource("hr", federation.FullSQL(), mkLink())
	employees, err := hr.CreateTable(schema.MustTable("employees", []schema.Column{
		{Name: "emp_id", Kind: datum.KindInt},
		{Name: "name", Kind: datum.KindString},
		{Name: "dept", Kind: datum.KindString},
		{Name: "location", Kind: datum.KindString},
	}, 0))
	if err != nil {
		return nil, err
	}
	facilities := federation.NewRelationalSource("facilities", federation.FullSQL(), mkLink())
	offices, err := facilities.CreateTable(schema.MustTable("offices", []schema.Column{
		{Name: "emp_id", Kind: datum.KindInt},
		{Name: "building", Kind: datum.KindString},
		{Name: "desk", Kind: datum.KindString},
	}, 0))
	if err != nil {
		return nil, err
	}
	it := federation.NewRelationalSource("it", federation.FilterOnly(), mkLink())
	assets, err := it.CreateTable(schema.MustTable("assets", []schema.Column{
		{Name: "emp_id", Kind: datum.KindInt},
		{Name: "model", Kind: datum.KindString},
		{Name: "serial", Kind: datum.KindString},
	}, 0))
	if err != nil {
		return nil, err
	}
	for i := 1; i <= cfg.Employees; i++ {
		if err := employees.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(CustomerName(i)),
			datum.NewString(depts[rng.Intn(len(depts))]),
			datum.NewString(locations[rng.Intn(len(locations))]),
		}); err != nil {
			return nil, err
		}
		if err := offices.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("B%d", 1+rng.Intn(4))),
			datum.NewString(fmt.Sprintf("D%03d", rng.Intn(400))),
		}); err != nil {
			return nil, err
		}
		if err := assets.Insert(datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(models[rng.Intn(len(models))]),
			datum.NewString(fmt.Sprintf("SN-%06d", rng.Intn(1000000))),
		}); err != nil {
			return nil, err
		}
	}
	hr.RefreshStats()
	facilities.RefreshStats()
	it.RefreshStats()

	f := &EmployeeFederation{HR: hr, Facilities: facilities, IT: it}
	engine, err := f.NewEngine()
	if err != nil {
		return nil, err
	}
	f.Engine = engine
	return f, nil
}

// employee360SQL is the GAV mapping of §4's "single view of employee".
const employee360SQL = `
	SELECT e.emp_id AS emp_id, e.name AS name, e.dept AS dept, e.location AS location,
	       o.building AS building, o.desk AS desk, a.model AS model, a.serial AS serial
	FROM hr.employees e
	JOIN facilities.offices o ON e.emp_id = o.emp_id
	JOIN it.assets a ON e.emp_id = a.emp_id`

// Sources lists the federation's sources (see CRMFederation.Sources).
func (f *EmployeeFederation) Sources() []federation.Source {
	return []federation.Source{f.HR, f.Facilities, f.IT}
}

// NewEngine builds another mediator over the same source fleet with the
// employee360 view — a cluster node.
func (f *EmployeeFederation) NewEngine() (*core.Engine, error) {
	engine := core.New()
	for _, s := range f.Sources() {
		if err := engine.Register(s); err != nil {
			return nil, err
		}
	}
	if err := engine.DefineView("employee360", employee360SQL); err != nil {
		return nil, err
	}
	return engine, nil
}

// GenerateDocuments fills a store with n deterministic support notes that
// mention customer names, for the enterprise-search experiments.
func GenerateDocuments(store *docstore.Store, n int, customers int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	topics := []string{"outage", "renewal", "escalation", "billing dispute", "feature request"}
	for i := 0; i < n; i++ {
		cust := rng.Intn(customers)
		topic := topics[rng.Intn(len(topics))]
		doc := docstore.Document{
			ID: fmt.Sprintf("note-%05d", i),
			Fields: map[string]datum.Datum{
				"customer": datum.NewString(CustomerName(cust)),
				"topic":    datum.NewString(topic),
			},
			Body: fmt.Sprintf("%s reported a %s; follow-up scheduled with %s",
				CustomerName(cust), topic, firstNames[rng.Intn(len(firstNames))]),
		}
		if err := store.Put(doc); err != nil {
			return err
		}
	}
	return nil
}

// DirtyName corrupts a clean name deterministically: case shuffling,
// punctuation, truncation — the "no reliable join key" condition of §5.
// severity in [0,1] controls how much damage is applied.
func DirtyName(name string, severity float64, rng *rand.Rand) string {
	out := []rune(name)
	// Case flips.
	for i := range out {
		if rng.Float64() < severity*0.3 {
			r := out[i]
			switch {
			case r >= 'a' && r <= 'z':
				out[i] = r - 32
			case r >= 'A' && r <= 'Z':
				out[i] = r + 32
			}
		}
	}
	s := string(out)
	// Punctuation injection.
	if rng.Float64() < severity {
		s = strings.Replace(s, " ", ", ", 1)
	}
	// Truncation.
	if rng.Float64() < severity*0.5 && len(s) > 4 {
		s = s[:len(s)-2]
	}
	return s
}
