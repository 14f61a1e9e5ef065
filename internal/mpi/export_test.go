package mpi

// HeapPerRound is shared with the external test package (mpi_test), which
// exists because the channel-setup guard needs internal/stream and stream
// imports this package.
var HeapPerRound = heapPerRound
