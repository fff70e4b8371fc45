// Package lib is the retrydefault fixture. The analyzer matches the
// RetryPolicy name, not the defining package, so the fixture
// declares a look-alike type of its own.
package lib

type RetryPolicy struct {
	MaxAttempts int
}

// DefaultRetryPolicy is the sanctioned opt-in surface: package-level
// Default* declarations are exempt even though they enable retries.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3}

func enabledRetries() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3} // want "MaxAttempts > 1"
}

func nonConstant(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts} // want "MaxAttempts > 1"
}

func defaultRef() RetryPolicy {
	return DefaultRetryPolicy // want "DefaultRetryPolicy"
}

func disabled() RetryPolicy {
	return RetryPolicy{MaxAttempts: 1}
}

func allowed() RetryPolicy {
	//lint:allow retrydefault fixture opts in deliberately
	return RetryPolicy{MaxAttempts: 4}
}
