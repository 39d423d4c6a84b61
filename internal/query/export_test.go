package query

// Constrained exposes q's constrained flags to the external test
// package, which compares a reused slot's flags with a fresh parse's.
func Constrained(q Query) []bool { return q.constrained }
