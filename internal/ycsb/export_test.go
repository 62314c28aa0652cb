package ycsb

// CountZetaTerms runs f and returns how many zeta series terms it summed.
func CountZetaTerms(f func()) int {
	terms := 0
	zetaTerms = func(n int) { terms += n }
	defer func() { zetaTerms = nil }()
	f()
	return terms
}
