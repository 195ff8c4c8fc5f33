package shard

// OpenFileBackend lets the external conformance test open a shard file
// as the local-file Backend.
var OpenFileBackend = openFileBackend
