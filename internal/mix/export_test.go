package mix

// CheckBlameVerdicts is checkBlameVerdicts, for the external test
// package that runs FuzzBlameVerdicts' draws over rpc.HopClient.
var CheckBlameVerdicts = checkBlameVerdicts
