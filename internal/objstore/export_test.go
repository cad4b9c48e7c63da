package objstore

// Lent to the protocol's external tests: the allocation probe, and the
// Select request encoder, to build requests the client would not send.
var (
	LeastAlloc   = leastAlloc
	EncodeSelect = encodeSelect
)
