package plan

// NodesCopied reads the process-wide count of plan nodes binding has
// copied.
func NodesCopied() int64 { return nodesCopied.Load() }
