// Package fixture is the fixture module's public API: a type it re-exports
// keeps every exported method of that type alive for deadcode.
package fixture

import "fixture/internal/dead"

// Net re-exports the internal network type.
type Net = dead.Net
