package mix

// CheckBlameVerdicts is checkBlameVerdicts, for the external test
// package that runs FuzzBlameVerdicts' draws over rpc.HopClient.
var CheckBlameVerdicts = checkBlameVerdicts

// server is the in-process server at position i of a chain NewChain
// built.
func (c *Chain) server(i int) *Server { return c.hops[i].(localHop).s }
