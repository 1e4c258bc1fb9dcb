package textproc

// CheckAgainstReference lets corpus_test.go, which has to live outside the
// package to import internal/forum, run generated posts past the reference
// front end of oracle_test.go.
var CheckAgainstReference = checkAgainstReference
