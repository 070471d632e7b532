package runner

// JvmsimBinary exposes the jvmsim build helper to the external test package.
var JvmsimBinary = jvmsimBinary
