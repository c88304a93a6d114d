// Package mrfix exercises the live-package exemption: asyncfd/internal/tcpnet
// is classified Live, so an order-sensitive map range here is not flagged.
package mrfix

func firstOver(in map[int]int) int {
	for k, v := range in {
		if v > 10 {
			return k
		}
	}
	return -1
}
