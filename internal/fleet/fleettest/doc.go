// Package fleettest holds the fleet's test doubles, in the manner of
// net/http/httptest: LocalTransport, an in-process fleet.Transport over
// fleet.Hosts; VirtualClock, a deterministic fleet.Clock; and Chaos, a
// Transport wrapper that scripts delays, errors and drops. Together they
// run a whole degraded fleet on one goroutine with no sockets and no
// sleeping. Only tests import it.
package fleettest
