//go:build !linux

package buildtags

func Platform() string { return "other" }
