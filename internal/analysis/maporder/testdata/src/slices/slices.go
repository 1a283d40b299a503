// Package slices is a stub of the standard library's slices package,
// just rich enough to type-check the maporder fixtures hermetically.
package slices

func Sort[S ~[]E, E int | int64 | string](x S)          {}
func SortFunc[S ~[]E, E any](x S, cmp func(a, b E) int) {}
