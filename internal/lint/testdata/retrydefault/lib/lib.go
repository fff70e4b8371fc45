// Package lib is the retrydefault fixture. The analyzer matches the
// RetryPolicy/HealthConfig names, not the defining package, so
// the fixture declares look-alike types of its own.
package lib

type RetryPolicy struct {
	MaxAttempts int
}

type HealthConfig struct {
	TripAfter int
}

// DefaultRetryPolicy is the sanctioned opt-in surface: package-level
// Default* declarations are exempt even though they enable retries.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3}

func enabledRetries() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3} // want "MaxAttempts > 1"
}

func enabledBreaker() HealthConfig {
	return HealthConfig{TripAfter: 5} // want "TripAfter > 0"
}

func nonConstant(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts} // want "MaxAttempts > 1"
}

func defaultRef() RetryPolicy {
	return DefaultRetryPolicy // want "DefaultRetryPolicy"
}

func disabled() (RetryPolicy, HealthConfig) {
	return RetryPolicy{MaxAttempts: 1}, HealthConfig{TripAfter: 0}
}

func allowed() RetryPolicy {
	//lint:allow retrydefault fixture opts in deliberately
	return RetryPolicy{MaxAttempts: 4}
}
