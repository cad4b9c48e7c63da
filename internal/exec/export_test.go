package exec

// Every test in the package runs with the lent buffers poisoned: a
// consumer that holds a lent page past its next pull reads garbage.
func init() { poison = true }
