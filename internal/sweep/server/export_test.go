package server

// MaxFinishedSweeps and RetryAfter are maxFinishedSweeps and
// retryAfter, for the external tests.
const (
	MaxFinishedSweeps = maxFinishedSweeps
	RetryAfter        = retryAfter
)
