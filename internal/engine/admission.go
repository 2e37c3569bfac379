package engine

import (
	"fmt"
	"sync"
)

// AdmissionConfig bounds how many concurrent queries the serving layer
// accepts. A zero limit means unlimited on that axis, so the zero value
// admits everything — existing single-tenant deployments are unaffected.
type AdmissionConfig struct {
	// MaxQueries caps the total number of live queries across all tenants.
	MaxQueries int
	// TenantQuota caps the number of live queries any single tenant may
	// hold. Tenants are free-form strings; the empty tenant is a tenant
	// like any other.
	TenantQuota int
}

// AdmissionError is the typed rejection a posted query receives when it
// would exceed an admission limit. Callers distinguish rejection from
// parse or transport errors with errors.As.
type AdmissionError struct {
	// Tenant is the tenant whose post was rejected.
	Tenant string
	// Limit is the limit that was hit.
	Limit int
	// Kind is "global" when MaxQueries was exceeded, "tenant" when the
	// per-tenant quota was.
	Kind string
}

func (e *AdmissionError) Error() string {
	if e.Kind == "tenant" {
		return fmt.Sprintf("admission: tenant %q at quota (%d live queries)", e.Tenant, e.Limit)
	}
	return fmt.Sprintf("admission: system at capacity (%d live queries)", e.Limit)
}

// Admission is the concurrency-safe admission controller. Admit reserves a
// slot before the query is prepared; Release returns it when the cursor
// closes or preparation fails. Rejection never blocks and never disturbs
// already-admitted queries.
type Admission struct {
	cfg AdmissionConfig

	mu        sync.Mutex
	total     int
	perTenant map[string]int
}

// NewAdmission builds a controller for the given limits.
func NewAdmission(cfg AdmissionConfig) *Admission {
	return &Admission{cfg: cfg, perTenant: make(map[string]int)}
}

// Admit reserves a slot for tenant, or returns *AdmissionError without
// reserving anything.
func (a *Admission) Admit(tenant string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.MaxQueries > 0 && a.total >= a.cfg.MaxQueries {
		return &AdmissionError{Tenant: tenant, Limit: a.cfg.MaxQueries, Kind: "global"}
	}
	if a.cfg.TenantQuota > 0 && a.perTenant[tenant] >= a.cfg.TenantQuota {
		return &AdmissionError{Tenant: tenant, Limit: a.cfg.TenantQuota, Kind: "tenant"}
	}
	a.total++
	a.perTenant[tenant]++
	return nil
}

// Release returns tenant's slot. Releasing without a matching Admit is a
// no-op, so teardown paths may release unconditionally.
func (a *Admission) Release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.perTenant[tenant] == 0 {
		return
	}
	a.total--
	if a.perTenant[tenant]--; a.perTenant[tenant] == 0 {
		delete(a.perTenant, tenant)
	}
}

// Load reports the current live-query count and the per-tenant breakdown
// (a copy — callers may not mutate controller state).
func (a *Admission) Load() (total int, perTenant map[string]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	perTenant = make(map[string]int, len(a.perTenant))
	for t, n := range a.perTenant {
		perTenant[t] = n
	}
	return a.total, perTenant
}
