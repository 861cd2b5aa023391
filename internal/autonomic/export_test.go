package autonomic

import "time"

// SetClock makes the controller read its wall-clock stamps from now, so a
// test can pin them.
func SetClock(c *Controller, now func() time.Time) { c.now = now }
