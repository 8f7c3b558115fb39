package server

// MaxFinishedSweeps is maxFinishedSweeps, for the external tests.
const MaxFinishedSweeps = maxFinishedSweeps
