package ruu

// WithStateOracle is withStateOracle, for the external test package.
var WithStateOracle = withStateOracle
