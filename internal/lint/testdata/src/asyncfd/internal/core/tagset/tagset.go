// Package tagset seeds the timefree fixture below the rule: the whole
// package is in scope.
package tagset

import "time" // want `asyncfd/internal/core/tagset imports time`

var _ = time.Second
