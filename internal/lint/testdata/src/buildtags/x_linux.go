package buildtags

// Platform is declared once per build: here on Linux, in x_other.go
// elsewhere.
func Platform() string { return "linux" }
