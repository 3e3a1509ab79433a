package federation

// FetchWork reads the process-wide counts of the work a fetch repeats
// unless a prepared fragment serves it — capability checks, and fetches
// that compiled expressions at the source — and of the fragments prepared.
func FetchWork() (validated, compiled, prepared int64) {
	return validations.Load(), sourceCompiles.Load(), prepares.Load()
}
