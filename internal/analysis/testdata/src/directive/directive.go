// Fixture for ignore-directive handling: a directive with no check name,
// no reason, or a check name absent from the suite is malformed — it is
// reported itself and waives nothing.
package fixture

import "time"

func malformedDirective() {
	//lint:ignore
	_ = time.Now()
}

func reasonlessDirective() {
	//lint:ignore determinism
	_ = time.Now()
}

func wrongCheckDirective() {
	//lint:ignore maporder reason aimed at the wrong check
	_ = time.Now()
}

func staleDirective() int {
	//lint:ignore determinism reason for a finding that no longer exists
	return 1
}

func unknownCheckDirective() {
	//lint:ignore determinsm a misspelt check name waives nothing and is reported
	_ = time.Now()
}
